"""Matrix, report and abundance-map file formats.

Matrices travel as delimited text (written with commas), full 17-
significant-digit decimals so float64 values round-trip exactly.  Lines
starting with '#' are comments; an empty matrix is written as one comment
recording its shape, and read back at that shape.  Run reports are flat
``key = value`` files with dotted key namespaces and one JSON value per
key, except that JSON's
``null``/``Infinity``/``NaN`` are spelled ``none``/``inf``/``nan``;
abundance maps are ASCII PGM (P2, 16-bit) so they can be inspected
without imaging libraries.
"""

import dataclasses
import itertools
import json
import os
import re

import numpy as np

from .model import as_integer, as_matrix, check_dims

__all__ = [
    "load_matrix",
    "save_matrix",
    "write_report",
    "read_report",
    "write_pgm",
    "report_values",
    "save_results",
    "REPORT_SCHEMA_VERSION",
]

_LAYOUTS = ("bands-by-pixels", "pixels-by-bands")

# The one line of an empty matrix's file.
_EMPTY_MATRIX = re.compile(r"# empty matrix: (\d+) rows x (\d+) columns")

REPORT_SCHEMA_VERSION = 1

PGM_MAXVAL = 65535


def load_matrix(path, layout="bands-by-pixels", delimiter=",", header=False):
    """Parse a delimited numeric text file into a bands-by-pixels matrix.

    Tokens are whatever Python's ``float`` accepts after stripping
    surrounding whitespace.  The file is parsed by ``np.loadtxt``, which
    accepts a subset of those tokens and gives bitwise-equal values; any
    file it rejects, or whose values are not all finite, is parsed again
    token by token, which accepts the rest or names the offending line
    and column.

    Parameters
    ----------
    path : path-like
        File to read.  '#' lines and blank lines are skipped.
    layout : {"bands-by-pixels", "pixels-by-bands"}
        Orientation of the rows on disk; the returned matrix is always
        bands-by-pixels (pixels-by-bands input is transposed).
    delimiter : str
        Field separator.
    header : bool
        Skip the first non-comment line.

    Raises
    ------
    ValueError
        Ragged rows (with the offending line number), non-numeric or
        non-finite tokens (with line and column), files without data
        (apart from :func:`save_matrix`'s record of an empty matrix), or
        an unknown layout.
    """
    if layout not in _LAYOUTS:
        raise ValueError("layout must be one of %s, got %r" % (_LAYOUTS, layout))
    matrix = _parse_numpy(path, delimiter, header)
    if matrix is None:
        matrix = _parse_tokens(path, delimiter, header)
    if layout == "pixels-by-bands":
        matrix = matrix.T
    return np.ascontiguousarray(matrix)


def _data_lines(fh, header):
    """(line number, stripped line) for each line that holds values.

    Blank lines and lines starting with '#' are skipped, and so is the
    first remaining line when ``header`` is set.
    """
    skipped_header = not header
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not skipped_header:
            skipped_header = True
            continue
        yield lineno, line


def _loadtxt_lines(fh, header):
    """The data lines for ``np.loadtxt``; a '#' in one raises ValueError.

    '#' is never part of a number, so such a line is the token parser's
    to report, and ``loadtxt``'s comment rules never come into play.
    """
    for _, line in _data_lines(fh, header):
        if "#" in line:
            raise ValueError("'#' inside a data line")
        yield line


def _parse_numpy(path, delimiter, header):
    """The matrix ``np.loadtxt`` reads, or None where it cannot be trusted.

    Streams the data lines without reading the whole file into memory.
    None means the file needs ``_parse_tokens``: ``loadtxt`` rejected a
    token or the delimiter (a multi-character one is a TypeError), there
    were no data lines, or a value is not finite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = _loadtxt_lines(fh, header)
        try:
            # Peek so that an empty file never reaches loadtxt, which
            # warns "input contained no data" instead of raising.
            first = next(lines, None)
            if first is None:
                return None
            matrix = np.loadtxt(itertools.chain((first,), lines),
                                delimiter=delimiter, comments=None, ndmin=2,
                                dtype=np.float64)
        except (ValueError, TypeError):
            return None
    # NaN and +-inf reach the extremes, so no L-by-K mask is formed.
    if matrix.size == 0 or not (np.isfinite(matrix.min())
                                and np.isfinite(matrix.max())):
        return None
    return matrix


def _parse_tokens(path, delimiter, header):
    """Parse token by token with ``float``; errors name line and column."""
    name = str(path)
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in _data_lines(fh, header):
            values = []
            for col, token in enumerate(line.split(delimiter), start=1):
                token = token.strip()
                try:
                    value = float(token)
                except ValueError:
                    raise ValueError(
                        "%s: non-numeric value %r at line %d, column %d"
                        % (name, token, lineno, col)) from None
                if not np.isfinite(value):
                    raise ValueError(
                        "%s: non-finite value %r at line %d, column %d"
                        % (name, token, lineno, col))
                values.append(value)
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    "%s: ragged row at line %d: expected %d values, got %d"
                    % (name, lineno, width, len(values)))
            rows.append(values)
    if rows:
        return np.asarray(rows, dtype=np.float64)
    with open(path, "r", encoding="utf-8") as fh:
        empty = _EMPTY_MATRIX.fullmatch(fh.readline().strip())
    if empty is None:
        raise ValueError("%s: no numeric data" % name)
    return np.zeros((int(empty[1]), int(empty[2])))


def save_matrix(path, matrix):
    """Write a matrix as comma-separated text with %.17g precision.

    An empty matrix (zero rows or columns) produces a one-line comment
    recording its shape, which :func:`load_matrix` reads back.
    """
    matrix = as_matrix(matrix, "matrix")
    with open(path, "w", encoding="utf-8") as fh:
        if matrix.size == 0:
            fh.write("# empty matrix: %d rows x %d columns\n" % matrix.shape)
            return
        line = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
        for row in matrix:
            fh.write(line % tuple(row.tolist()))


# JSON's bare words and the report's spellings of them, each way.  A
# match is either a whole quoted string, which is left alone, or a word
# to swap.
_BARE = {"null": "none", "Infinity": "inf", "NaN": "nan",
         "none": "null", "inf": "Infinity", "nan": "NaN"}
_BARE_OR_STRING = re.compile(r'"(?:[^"\\]|\\.)*"|' + "|".join(_BARE))


def _swap_bare(text):
    return _BARE_OR_STRING.sub(lambda m: _BARE.get(m.group(), m.group()), text)


def _plain(value):
    """The Python value ``json`` writes for a numpy scalar or array."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (np.bool_, np.integer, np.ndarray)):
        return value.tolist()
    raise TypeError("cannot serialize %r of type %s" % (value, type(value).__name__))


def write_report(path, values):
    """Write a flat ``key = value`` report file.

    ``values`` is a mapping; keys are written in iteration order after a
    leading ``schema_version`` line (added if absent).  Each value is
    written as ``json.dumps`` writes it, numpy scalars and arrays as
    Python values, with ``none``/``inf``/``nan`` for JSON's
    ``null``/``Infinity``/``NaN``.  Floats take their shortest
    round-trip form and control characters in strings are escaped, so
    read_report returns values equal to the ones written (tuples and
    arrays as lists).  A key that would not read back as itself (not a
    string, empty, with '=', a line break, a leading '#' or surrounding
    whitespace) raises ``ValueError`` before the file is opened.
    """
    for key in values:
        if (not isinstance(key, str) or not key or key != key.strip()
                or key.startswith("#") or any(c in key for c in "=\n\r")):
            raise ValueError("report key %r cannot be read back" % (key,))
    with open(path, "w", encoding="utf-8") as fh:
        if "schema_version" not in values:
            fh.write("schema_version = %d\n" % REPORT_SCHEMA_VERSION)
        for key, value in values.items():
            text = json.dumps(value, ensure_ascii=False, default=_plain)
            fh.write("%s = %s\n" % (key, _swap_bare(text)))


def read_report(path):
    """Parse a report file back into an ordered dict of typed values.

    Blank lines and lines starting with '#' are skipped.  Each value is
    read by ``json.loads`` after ``none``/``inf``/``nan`` outside quotes
    are mapped to JSON's spellings, so only the spellings write_report
    uses are read.  Errors are ``ValueError``s naming the file and line.
    """
    name = str(path)
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, text = line.partition("=")
            if not sep:
                raise ValueError("%s: line %d is not 'key = value': %r"
                                 % (name, lineno, line))
            key = key.strip()
            if not key:
                raise ValueError("%s: empty key at line %d" % (name, lineno))
            try:
                out[key] = json.loads(_swap_bare(text), strict=False)
            except ValueError as exc:
                raise ValueError("%s: line %d: cannot parse value %r: %s"
                                 % (name, lineno, text.strip(), exc.msg)) from None
    return out


def write_pgm(path, image):
    """Write a 2-D array as a min-max scaled 16-bit ASCII PGM (P2).

    Returns the (min, max) of the raw data, recorded by callers so the
    scaling can be undone.  A constant image maps to mid-gray.
    """
    image = as_matrix(image, "image")
    if image.size == 0:
        raise ValueError("image must be non-empty, got shape %s" % (image.shape,))
    lo = float(image.min())
    hi = float(image.max())
    if hi > lo:
        scaled = np.rint((image - lo) / (hi - lo) * PGM_MAXVAL).astype(np.int64)
    else:
        scaled = np.full(image.shape, (PGM_MAXVAL - 1) // 2, dtype=np.int64)
    height, width = image.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P2\n%d %d\n%d\n" % (width, height, PGM_MAXVAL))
        line = " ".join(["%d"] * width) + "\n"
        for row in scaled:
            fh.write(line % tuple(row.tolist()))
    return lo, hi


def report_values(report):
    """Flatten a solver report (or pass a dict through) into report keys."""
    if isinstance(report, dict):
        return dict(report)
    if dataclasses.is_dataclass(report):
        values = {"schema_version": REPORT_SCHEMA_VERSION}
        for field in dataclasses.fields(report.config):
            values["config." + field.name] = getattr(report.config, field.name)
        values.update({
            "result.iterations": report.iterations,
            "result.initial_cost": report.initial_cost,
            "result.final_cost": report.final_cost,
            "result.final_effective_rank": report.final_effective_rank,
            "result.surviving_columns": report.surviving_columns,
            "result.converged": report.converged,
            "result.rank_degenerate": report.rank_degenerate,
            "trace.cost": report.cost_trace,
            "trace.effective_rank": report.effective_rank_trace,
            "trace.beta_w": report.beta_w_trace,
            "trace.beta_phi": report.beta_phi_trace,
            "timing.wall_time_s": report.wall_time,
        })
        return values
    raise TypeError("report must be a dict or a solver report dataclass")


def _map_shape(height, width, pixels):
    """(height, width) of ``pixels`` abundance maps, None if neither is given."""
    if height is None and width is None:
        return None
    if height is None or width is None:
        raise ValueError("height and width must be given together")
    height = as_integer(height, "height", 1)
    width = as_integer(width, "width", 1)
    if height * width != pixels:
        raise ValueError("height * width = %d does not match %d pixels"
                         % (height * width, pixels))
    return height, width


def save_results(phi, w, report, out_dir, height=None, width=None):
    """Write a solve's outputs: endmembers.csv, abundances.csv, report.txt.

    When ``height`` and ``width`` are given (pixels = height * width),
    one ``map_<i>.pgm`` abundance image per surviving column is written
    as well, with each map's raw min/max recorded in the report under
    ``maps.map_<i>``.  The map geometry is checked before any file is
    written.  Returns a dict of the written paths.
    """
    phi = as_matrix(phi, "phi")
    w = as_matrix(w, "w")
    check_dims(None, phi, w)
    shape = _map_shape(height, width, w.shape[0])
    os.makedirs(out_dir, exist_ok=True)
    values = report_values(report)
    paths = {
        "endmembers": os.path.join(out_dir, "endmembers.csv"),
        "abundances": os.path.join(out_dir, "abundances.csv"),
        "report": os.path.join(out_dir, "report.txt"),
        "maps": [],
    }
    save_matrix(paths["endmembers"], phi)
    save_matrix(paths["abundances"], w)
    if shape is not None:
        values["maps.count"] = phi.shape[1]
        values["maps.height"], values["maps.width"] = shape
        for i in range(w.shape[1]):
            map_path = os.path.join(out_dir, "map_%d.pgm" % i)
            lo, hi = write_pgm(map_path, w[:, i].reshape(shape))
            values["maps.map_%d.min" % i] = lo
            values["maps.map_%d.max" % i] = hi
            paths["maps"].append(map_path)
    write_report(paths["report"], values)
    return paths
