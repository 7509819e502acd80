"""Byte units: the GiB factor and the GiB-size parser.

The simulator works in bytes internally; machine specs, budgets and report
tables state sizes in GiB, so the factor and the parser that validates a
user-supplied GiB size live here.
"""

from __future__ import annotations

GIB: int = 1024**3


def parse_gib(value: object, *, field: str = "budget") -> float | None:
    """Parse a GiB-denominated size into bytes, validating it.

    The shared conversion behind ``--budget-gib`` and
    ``--host-budget-gib`` (and the serve schema's GiB fields): accepts a
    number (or a numeric string, for CLI/JSON sources) and returns
    bytes; ``None`` passes through as "no budget". Raises
    :class:`~repro.common.errors.ConfigurationError` naming ``field``
    for non-numeric or non-positive sizes.
    """
    from repro.common.errors import ConfigurationError

    if value is None:
        return None
    try:
        gib = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{field} must be a size in GiB, got {value!r}"
        ) from None
    if isinstance(value, bool) or gib != gib or gib <= 0:
        raise ConfigurationError(
            f"{field} must be a positive size in GiB, got {value!r}"
        )
    return gib * GIB
