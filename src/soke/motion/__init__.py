"""Motion representation, toy kinematics, synthetic corpora, and file IO."""

from .kinematics import (
    KinematicChain,
    axis_angle_matrices,
    body_joint_indices,
    build_sign_chain,
    forward_kinematics_pass,
    forward_kinematics_sequence,
    forward_kinematics_vjp,
    hand_joint_indices,
)
from .layout import (
    DEFAULT_LAYOUT,
    PARTS,
    MotionSequence,
    Part,
    PartLayout,
    PartMotion,
    merge_parts,
    split_parts,
)
from .motion_io import load_motions, save_motions
from .synthetic import Lexicon, SynthConfig, build_lexicon, sign_instances, synthesize_dataset

__all__ = [
    "DEFAULT_LAYOUT",
    "KinematicChain",
    "Lexicon",
    "MotionSequence",
    "PARTS",
    "Part",
    "PartLayout",
    "PartMotion",
    "SynthConfig",
    "axis_angle_matrices",
    "body_joint_indices",
    "build_lexicon",
    "build_sign_chain",
    "forward_kinematics_pass",
    "forward_kinematics_sequence",
    "forward_kinematics_vjp",
    "hand_joint_indices",
    "load_motions",
    "merge_parts",
    "save_motions",
    "sign_instances",
    "split_parts",
]
