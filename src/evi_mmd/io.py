"""CSV schemas for datasets, particle snapshots, and run records.

Reals are serialized with 17 significant digits so that write/read round
trips are exact; integer columns stay integers.  Headers are fixed:

* dataset:      ``dim_0,...,dim_{d-1}`` (one sample per row)
* particles:    ``iter,particle_id,dim_0,...``
* run record:   ``iter,h_n,free_energy,mmd2_eval,energy_dist_eval,inner_iters,displacement``
"""

from __future__ import annotations

import csv
import math
from typing import List

import numpy as np

from .errors import DatasetError, InvalidArgumentError
from .model import EmpiricalTarget, IterationRow, ParticleSet, RunRecord

RUN_RECORD_HEADER = (
    "iter",
    "h_n",
    "free_energy",
    "mmd2_eval",
    "energy_dist_eval",
    "inner_iters",
    "displacement",
)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _dataset_header(d: int) -> List[str]:
    return [f"dim_{j}" for j in range(d)]


def _parse_float(token: str, line_no: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise DatasetError(
            f"column {column}: could not parse {token!r} as a real number", row=line_no
        ) from exc
    if not math.isfinite(value):
        raise DatasetError(f"column {column}: non-finite value {token!r}", row=line_no)
    return value


def load_dataset_csv(path: str, minibatch_size: int | None = None) -> EmpiricalTarget:
    """Read a two-sample training set.

    Expects the dataset header; infers M and d, rejects ragged rows and
    non-finite values with the offending line number.  ``minibatch_size``
    defaults to the full sample count.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path} is empty") from None
        d = len(header)
        if header != _dataset_header(d) or d < 1:
            raise DatasetError(
                f"expected header dim_0,...,dim_{{d-1}}, got {','.join(header)!r}", row=1
            )
        rows: List[List[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d:
                raise DatasetError(
                    f"expected {d} columns, got {len(row)}", row=line_no
                )
            rows.append([_parse_float(tok, line_no, header[j]) for j, tok in enumerate(row)])
    if not rows:
        raise DatasetError(f"{path} contains a header but no samples")
    data = np.array(rows, dtype=float)
    if minibatch_size is None:
        minibatch_size = data.shape[0]
    return EmpiricalTarget(data=data, minibatch_size=minibatch_size)


def write_dataset_csv(data: np.ndarray, path: str) -> None:
    """Write samples in the dataset schema (the sample-target output format)."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise InvalidArgumentError(f"data must be 2-d, got shape {data.shape}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_dataset_header(data.shape[1]))
        for row in data:
            writer.writerow([_fmt(v) for v in row])


def write_particles(particles: ParticleSet, path: str) -> None:
    """Write one particle snapshot (header ``iter,particle_id,dim_0,...``)."""
    pos = particles.positions
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "particle_id"] + _dataset_header(pos.shape[1]))
        for pid, row in enumerate(pos):
            writer.writerow([particles.iteration, pid] + [_fmt(v) for v in row])


def read_particles_csv(path: str) -> ParticleSet:
    """Read a particle snapshot written by :func:`write_particles`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["iter", "particle_id"]:
            raise DatasetError(f"{path} is not a particle snapshot", row=1)
        d = len(header) - 2
        if header != ["iter", "particle_id"] + _dataset_header(d):
            raise DatasetError(f"unexpected particle header {','.join(header)!r}", row=1)
        iteration = 0
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DatasetError(f"expected {d + 2} columns, got {len(row)}", row=line_no)
            iteration = int(row[0])
            rows.append([_parse_float(tok, line_no, header[j + 2]) for j, tok in enumerate(row[2:])])
    if not rows:
        raise DatasetError(f"{path} contains no particles")
    return ParticleSet(positions=np.array(rows, dtype=float), iteration=iteration)


def write_run_record(record: RunRecord, path: str) -> None:
    """Write a per-iteration trace; an empty record yields a header-only file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_RECORD_HEADER)
        for r in record.rows:
            writer.writerow(
                [
                    r.n,
                    _fmt(r.h_n),
                    _fmt(r.free_energy),
                    _fmt(r.mmd2_eval),
                    _fmt(r.energy_dist_eval),
                    r.inner_iters,
                    _fmt(r.displacement),
                ]
            )


def read_run_record_csv(path: str) -> RunRecord:
    """Read a trace written by :func:`write_run_record`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RUN_RECORD_HEADER):
            raise DatasetError(f"unexpected run-record header {header!r}", row=1)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(RUN_RECORD_HEADER):
                raise DatasetError(
                    f"expected {len(RUN_RECORD_HEADER)} columns, got {len(row)}",
                    row=line_no,
                )
            rows.append(
                IterationRow(
                    n=int(row[0]),
                    h_n=float(row[1]),
                    free_energy=float(row[2]),
                    mmd2_eval=float(row[3]),
                    energy_dist_eval=float(row[4]),
                    inner_iters=int(row[5]),
                    displacement=float(row[6]),
                )
            )
    return RunRecord(tuple(rows))


def read_points_any(path: str) -> np.ndarray:
    """Read sample points from either CSV schema (dataset or particle
    snapshot), for the metrics subcommand."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().strip()
    if first.startswith("iter,particle_id"):
        return read_particles_csv(path).positions
    return load_dataset_csv(path).data
