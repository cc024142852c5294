"""Classification-mode stamp.

The NumPy kernel classifies every batch with one scalar pass
(:func:`repro.uarch.kernel._classify`).  This module remains only so
run records can keep stamping the classification mode they ran with.
"""


def resolve_mode(requested=None) -> str:
    """The classification mode that will run: always ``"scalar"``."""
    return "scalar"
