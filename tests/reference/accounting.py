"""The validated per-transition adder for :class:`TimeAccount`."""

from repro.satin.accounting import CATEGORIES, TimeAccount


def add(account: TimeAccount, category: str, seconds: float) -> None:
    """Attribute ``seconds`` of activity to ``category`` (validated).

    An activity spanning a period rollover is attributed to the period
    in which it *ends* — the small inaccuracy the paper accepts for
    unsynchronised measurement.
    """
    if category not in CATEGORIES:
        raise ValueError(f"unknown activity category {category!r}")
    if seconds < 0:
        raise ValueError(f"negative duration {seconds!r}")
    setattr(account, category, getattr(account, category) + seconds)
    life = "_life_" + category
    setattr(account, life, getattr(account, life) + seconds)
