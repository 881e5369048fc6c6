"""Root of every exception fleetroll raises for bad input or an impossible
request; the command line reports any of them as a one-line error."""

from pathlib import Path


class FleetrollError(Exception):
    pass


def read_utf8(path, error, name=None) -> str:
    """A file's text; a file that is not UTF-8 raises `error`, a
    FleetrollError, naming it (`name`, by default its path) and the bad byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{name or path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
