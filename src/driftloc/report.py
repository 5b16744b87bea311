"""Report text: ``json.dumps(x, indent=2, sort_keys=True)`` without json's
pure-Python indenting encoder, writing a list of plain ints in one join."""

from json.encoder import encode_basestring_ascii as _string

_INF = float("inf")
_NAMES = {None: "null", True: "true", False: "false"}


def _scalar(o) -> str:
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, float):
        return ("NaN" if o != o else "Infinity" if o == _INF
                else "-Infinity" if o == -_INF else float.__repr__(o))
    if o is None or isinstance(o, bool):
        return _NAMES[o]
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if not (k is None or isinstance(k, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return _string(k if isinstance(k, str) else _scalar(k))


def _encode(o, indent: str) -> str:
    is_dict = isinstance(o, dict)
    if not (is_dict or isinstance(o, (list, tuple))):
        return _scalar(o)
    if not o:
        return "{}" if is_dict else "[]"
    inner = indent + "  "
    if is_dict:
        items = [_key(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
    elif set(map(type, o)) == {int}:
        items = map(int.__repr__, o)
    else:
        items = [_encode(x, inner) for x in o]
    body = ("," + inner).join(items)
    return ("{" if is_dict else "[") + inner + body + indent + ("}" if is_dict else "]")


def report_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``; a container holding
    itself hits the recursion limit instead of raising json's ValueError."""
    return _encode(obj, "\n")
