"""CSV schemas for datasets, particle snapshots, and run records.

Every file is one table: a fixed header, then one row per sample, particle
or iteration.  Each schema is declared once as ``(name, kind)`` columns, and
one writer and one reader serve them all.  :func:`_write_table` writes
integer columns with ``str`` and reals with 17 significant digits, so
write/read round trips are exact.  :func:`_read_table` turns every malformed
file (unreadable, empty, wrong header, ragged row, unparsable or non-finite
token) into a :class:`DatasetError` naming the offending line.  Headers:

* dataset:      ``dim_0,...,dim_{d-1}`` (one sample per row)
* particles:    ``iter,particle_id,dim_0,...``
* run record:   ``iter,h_n,free_energy,mmd2_eval,energy_dist_eval,inner_iters,displacement``
"""

from __future__ import annotations

import csv
import math
from dataclasses import fields
from operator import attrgetter
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DatasetError, InvalidArgumentError
from .model import EmpiricalTarget, IterationRow, ParticleSet, RunRecord, _check_sample

Columns = Tuple[Tuple[str, type], ...]

# One column per IterationRow field, in field order.
RUN_RECORD_COLUMNS: Columns = (
    ("iter", int),
    ("h_n", float),
    ("free_energy", float),
    ("mmd2_eval", float),
    ("energy_dist_eval", float),
    ("inner_iters", int),
    ("displacement", float),
)
RUN_RECORD_HEADER = tuple(name for name, _ in RUN_RECORD_COLUMNS)
_ROW_VALUES = attrgetter(*(f.name for f in fields(IterationRow)))

_PARTICLE_KEYS: Columns = (("iter", int), ("particle_id", int))
_KIND_NAMES = {int: "an integer", float: "a real number"}
_FORMATS = {int: str, float: lambda v: "%.17g" % float(v)}


def _dims(d: int) -> Columns:
    """The coordinate columns; every schema has at least ``dim_0``."""
    return tuple((f"dim_{j}", float) for j in range(max(d, 1)))


def _dataset_columns(header: List[str]) -> Columns:
    return _dims(len(header))


def _particle_columns(header: List[str]) -> Columns:
    return _PARTICLE_KEYS + _dims(len(header) - len(_PARTICLE_KEYS))


def _points_columns(header: List[str]) -> Columns:
    """The particle schema for a header that starts like one, else the dataset's."""
    if header[: len(_PARTICLE_KEYS)] == [name for name, _ in _PARTICLE_KEYS]:
        return _particle_columns(header)
    return _dataset_columns(header)


def _parse(token: str, line: int, column: str, kind: type, finite: bool):
    try:
        value = kind(token)
    except ValueError:
        raise DatasetError(
            f"column {column}: could not parse {token!r} as {_KIND_NAMES[kind]}", row=line
        ) from None
    if finite and not math.isfinite(value):
        raise DatasetError(f"column {column}: non-finite value {token!r}", row=line)
    return value


def _read_table(
    path: str, columns_for: Callable[[List[str]], Columns], finite: bool = True
) -> Tuple[Columns, List[list], List[int]]:
    """The columns ``columns_for(header)`` names, the parsed rows of a CSV
    table and their line numbers; blank lines are skipped and real values
    must be finite when ``finite``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DatasetError(f"{path} is empty")
            columns = columns_for(header)
            names = [name for name, _ in columns]
            if header != names:
                raise DatasetError(
                    f"expected header {','.join(names)!r}, got {','.join(header)!r}", row=1
                )
            rows, lines = [], []
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != len(names):
                    raise DatasetError(f"expected {len(names)} columns, got {len(row)}", row=line)
                rows.append(
                    [_parse(t, line, name, kind, finite) for t, (name, kind) in zip(row, columns)]
                )
                lines.append(line)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    return columns, rows, lines


def _write_table(path: str, columns: Columns, rows: Iterable[Sequence]) -> None:
    formats = [_FORMATS[kind] for _, kind in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        writer.writerows([fmt(v) for fmt, v in zip(formats, row)] for row in rows)


def _read_points(path: str, columns_for: Callable) -> Tuple[int, np.ndarray]:
    """The ``iter`` (0 for a dataset) and the coordinates of a dataset or
    particle snapshot; a snapshot's rows share one ``iter`` and number the
    particles 0..N-1 in order."""
    columns, rows, lines = _read_table(path, columns_for)
    if not rows:
        raise DatasetError(f"{path} contains a header but no rows")
    keys = len(_PARTICLE_KEYS) if columns[: len(_PARTICLE_KEYS)] == _PARTICLE_KEYS else 0
    if keys:
        iteration = rows[0][0]
        for pid, (row, line) in enumerate(zip(rows, lines)):
            if row[0] != iteration:
                raise DatasetError(
                    f"iter {row[0]} differs from the first row's {iteration}", row=line
                )
            if row[1] != pid:
                raise DatasetError(f"particle_id {row[1]}, expected {pid}", row=line)
    data = np.array([row[keys:] for row in rows], dtype=float)
    return (rows[0][0] if keys else 0), data


def load_dataset_csv(path: str, minibatch_size: int | None = None) -> EmpiricalTarget:
    """Read a two-sample training set.

    Expects the dataset header; infers M and d, rejects ragged rows and
    non-finite values with the offending line number.  ``minibatch_size``
    defaults to the full sample count.
    """
    data = _read_points(path, _dataset_columns)[1]
    if minibatch_size is None:
        minibatch_size = data.shape[0]
    return EmpiricalTarget(data=data, minibatch_size=minibatch_size)


def write_dataset_csv(data: np.ndarray, path: str) -> None:
    """Write samples in the dataset schema (the sample-target output format)."""
    data = _check_sample(data, "data")
    _write_table(path, _dims(data.shape[1]), data.tolist())


def write_particles(particles: ParticleSet, path: str) -> None:
    """Write one particle snapshot (header ``iter,particle_id,dim_0,...``)."""
    pos = particles.positions
    rows = ([particles.iteration, pid, *row] for pid, row in enumerate(pos.tolist()))
    _write_table(path, _PARTICLE_KEYS + _dims(pos.shape[1]), rows)


def read_particles_csv(path: str) -> ParticleSet:
    """Read a particle snapshot written by :func:`write_particles`: every row
    has the same ``iter``, and ``particle_id`` runs 0..N-1 in order."""
    iteration, positions = _read_points(path, _particle_columns)
    try:
        return ParticleSet(positions=positions, iteration=iteration)
    except InvalidArgumentError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def write_run_record(record: RunRecord, path: str) -> None:
    """Write a per-iteration trace; an empty record yields a header-only file."""
    _write_table(path, RUN_RECORD_COLUMNS, map(_ROW_VALUES, record.rows))


def read_run_record_csv(path: str) -> RunRecord:
    """Read a trace written by :func:`write_run_record`; real columns may
    hold NaN."""
    rows = _read_table(path, lambda header: RUN_RECORD_COLUMNS, finite=False)[1]
    try:
        return RunRecord(tuple(IterationRow(*row) for row in rows))
    except InvalidArgumentError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def read_points_any(path: str) -> np.ndarray:
    """Read sample points from either CSV schema (dataset or particle
    snapshot, told apart by the header), for the metrics subcommand."""
    return _read_points(path, _points_columns)[1]
