"""Deterministic serialization for reports and tables.

Reports are nested dicts of scalars/lists written as YAML with insertion
order preserved and floats emitted via repr (shortest exact round-trip), so
identical inputs produce byte-identical files and parsing recovers the exact
values.

Tables (spectrum, trace sample and plotting files) share one text format:
'# key=value key=value' header lines, one per group of keys, a line of
comma-separated column names, then comma-separated rows with floats to 17
significant digits, so reading a table back recovers the exact doubles.  A
header value runs to the next ' key=' or to the end of its line.
"""

import hashlib
import re
from itertools import starmap

import numpy as np
import yaml

_HEADER_ITEM = re.compile(r"(\w+)=(.*?)(?=\s+\w+=|\s*$)")

# The libyaml parser when PyYAML was built with it: the same documents, about
# seven times faster to parse than the pure-Python SafeLoader.
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# Likewise the libyaml emitter: byte-identical reports, about four times
# faster to dump than the pure-Python SafeDumper.
class _Dumper(getattr(yaml, "CSafeDumper", yaml.SafeDumper)):
    pass


def _float_representer(dumper, value):
    # A repr that would not read back as a float untagged (6e-05, inf) is
    # tagged and quoted, as the pure-Python emitter writes it; libyaml's
    # would leave it unquoted.
    tag, text = "tag:yaml.org,2002:float", repr(float(value))
    plain = dumper.resolve(yaml.ScalarNode, text, (True, False)) == tag
    return dumper.represent_scalar(tag, text, style=None if plain else "'")


_Dumper.add_representer(float, _float_representer)


def _sanitize(obj):
    """Coerce numpy scalars/arrays to native types for serialization."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_report(report):
    return yaml.dump(_sanitize(report), Dumper=_Dumper, sort_keys=False,
                     default_flow_style=False)


def parse_report(text):
    return yaml.load(text, Loader=SAFE_LOADER)


def write_report(report, path):
    with open(path, "w") as fh:
        fh.write(dump_report(report))


def read_report(path):
    with open(path) as fh:
        return parse_report(fh.read())


def write_table(path, header, columns, row_format, rows):
    """One '#' line per dict of preformatted header values, the column
    names, then ``row_format.format(*row)`` per row.  Plain Python values
    (``ndarray.tolist()``) format faster than numpy scalars."""
    lines = ["# " + " ".join(f"{key}={val}" for key, val in group.items())
             for group in header]
    lines.append(",".join(columns))
    lines.extend(starmap(row_format.format, rows))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path, columns):
    """(header, rows) of a table: the header as one dict of strings, the
    rows as an (n, len(columns)) float array.  Raises ValueError unless the
    column line names ``columns`` and every row has that many numbers."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, i = {}, 0
    while i < len(lines) and lines[i].startswith("#"):
        header.update(_HEADER_ITEM.findall(lines[i]))
        i += 1
    if lines[i:i + 1] != [",".join(columns)]:
        raise ValueError(f"{path}: no column line {','.join(columns)!r}")
    body = lines[i + 1:]
    rows = (np.loadtxt(body, delimiter=",", ndmin=2) if any(body)
            else np.empty((0, len(columns))))
    if rows.shape[1] != len(columns):
        raise ValueError(f"{path}: rows have {rows.shape[1]} columns, "
                         f"expected {len(columns)}")
    return header, rows


def digest_file(path):
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            sha.update(chunk)
    return "sha256:" + sha.hexdigest()


def digest_array(arr):
    return "sha256:" + hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
