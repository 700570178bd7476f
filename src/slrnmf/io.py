"""Matrix, report and abundance-map file formats.

Matrices travel as delimited text (default comma), full 17-significant-
digit decimals so float64 values round-trip exactly.  Lines starting
with '#' are comments.  Run reports are flat ``key = value`` files with
dotted key namespaces and one JSON value per key, except that JSON's
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

from .model import as_integer, as_matrix

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
        non-finite tokens (with line and column), empty files, or an
        unknown layout.
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
    if matrix.size == 0 or not np.isfinite(matrix).all():
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
    if not rows:
        raise ValueError("%s: no numeric data" % name)
    return np.asarray(rows, dtype=np.float64)


def save_matrix(path, matrix, delimiter=",", comments=()):
    """Write a matrix as delimited text with %.17g precision.

    Optional ``comments`` lines are emitted first, prefixed with '# '.
    An empty matrix (zero rows or columns) produces a comment-only file
    recording the shape.
    """
    matrix = as_matrix(matrix, "matrix")
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write("# %s\n" % line)
        if matrix.size == 0:
            fh.write("# empty matrix: %d rows x %d columns\n" % matrix.shape)
            return
        # One format string per row; a '%' in the delimiter is literal.
        fields = ["%.17g"] * matrix.shape[1]
        line = delimiter.replace("%", "%%").join(fields) + "\n"
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
    arrays as lists).
    """
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


def save_results(phi, w, report, out_dir, height=None, width=None):
    """Write a solve's outputs: endmembers.csv, abundances.csv, report.txt.

    When ``height`` and ``width`` are given (pixels = height * width),
    one ``map_<i>.pgm`` abundance image per surviving column is written
    as well, with each map's raw min/max recorded in the report under
    ``maps.map_<i>``.  Returns a dict of the written paths.
    """
    phi = as_matrix(phi, "phi")
    w = as_matrix(w, "w")
    if phi.shape[1] != w.shape[1]:
        raise ValueError("phi and w disagree on the number of columns")
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
    if height is not None or width is not None:
        if height is None or width is None:
            raise ValueError("height and width must be given together")
        height = as_integer(height, "height", 1)
        width = as_integer(width, "width", 1)
        if height * width != w.shape[0]:
            raise ValueError(
                "height * width = %d does not match %d pixels"
                % (height * width, w.shape[0]))
        values["maps.count"] = phi.shape[1]
        values["maps.height"] = height
        values["maps.width"] = width
        for i in range(w.shape[1]):
            map_path = os.path.join(out_dir, "map_%d.pgm" % i)
            lo, hi = write_pgm(map_path, w[:, i].reshape(height, width))
            values["maps.map_%d.min" % i] = lo
            values["maps.map_%d.max" % i] = hi
            paths["maps"].append(map_path)
    write_report(paths["report"], values)
    return paths
