"""Instance generation, file formats, CLI, and the suite runner."""

from .generators import Family, InstanceSpec, make_pair
from .io import matrix_from_obj, matrix_to_obj, read_pair, write_pair, write_report
from .rng import mix64, random_unitary
from .suite import analyze_pair, default_config, run_suite

__all__ = [
    "Family",
    "InstanceSpec",
    "analyze_pair",
    "default_config",
    "make_pair",
    "matrix_from_obj",
    "matrix_to_obj",
    "mix64",
    "random_unitary",
    "read_pair",
    "run_suite",
    "write_pair",
    "write_report",
]
