"""Word-level text normalization shared by the vocabulary, the retrieval
dictionary, and the synthetic lexicon."""

from __future__ import annotations


def tokenize_words(text: str) -> list[str]:
    """Lowercased whitespace tokenization."""
    return text.lower().split()


def lemmatize(word: str) -> str:
    """Lowercase plus a small English-style suffix stripper (-s, -ing, -ed).

    The one word normalization: the synthetic lexicon, the sign dictionary
    and prompt lookup all key words by it.
    """
    w = word.lower().strip()
    for suffix in ("ing", "ed", "s"):
        if w.endswith(suffix) and len(w) - len(suffix) >= 3:
            return w[: -len(suffix)]
    return w
