"""File formats and seed derivation.

Sample sets travel as a one-line JSON header followed by one whitespace
record per sample; models and reports are JSON documents; photoelectron
traces are two-column CSV.  All reals are serialized with 17 significant
digits so that a write/read cycle is lossless.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .model import ApproxModel, GaussianComponent, ModelError, ParamSpace, SampleSet
from .muons import PECountSignal

__all__ = [
    "StorageError",
    "parse_json_object",
    "write_json",
    "write_csv",
    "write_samples",
    "read_samples",
    "write_model",
    "read_model",
    "write_report",
    "write_pe_signal",
    "read_pe_signal",
    "spawn_seeds",
]

SAMPLES_FORMAT = "transdim-samples"
MODEL_FORMAT = "transdim-model"
FORMAT_VERSION = 1


class StorageError(ModelError):
    """Malformed file, wrong version, or invalid configuration document."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_json(doc: dict, path) -> None:
    """A JSON document: one-space indent, sorted keys, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows, preamble: str = "") -> None:
    """A CSV table: ``preamble`` text, the header row, then the rows as given
    (reals formatted with ``_fmt`` by the caller)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(preamble)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def parse_json_object(text: str, what: str) -> dict:
    """Parse a JSON document that must be an object; ``what`` names it in errors."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise StorageError(f"{what} is not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise StorageError(f"{what} is not a JSON object")
    return doc


# ---------------------------------------------------------------------------
# sample sets
# ---------------------------------------------------------------------------


def write_samples(samples: SampleSet, path) -> None:
    """Persist a SampleSet: JSON header line, then one record per sample.

    Non-finite values are refused before the file is opened, so a refused
    write leaves an existing file as it was.
    """
    if not np.all(np.isfinite(samples.points)):
        raise StorageError("refusing to write non-finite sample values")
    header = {
        "format": SAMPLES_FORMAT,
        "version": FORMAT_VERSION,
        "d": samples.space.dim,
        "bounds": [[float(lo), float(hi)] for lo, hi in samples.space.bounds],
        "provenance": samples.provenance,
    }
    values = [_fmt(v) for v in samples.points.ravel().tolist()]
    ends = (samples.offsets * samples.space.dim).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for k, a, b in zip(samples.k.tolist(), ends, ends[1:]):
            fh.write(" ".join([str(k), *values[a:b]]) + "\n")


def read_samples(path) -> SampleSet:
    """Stream a samples file back into a SampleSet.

    Errors carry the 1-based line number of the offending record.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise StorageError("empty file: missing header")
        header = parse_json_object(first, "line 1: header")
        if header.get("format") != SAMPLES_FORMAT:
            raise StorageError(f"line 1: not a {SAMPLES_FORMAT} file")
        if header.get("version") != FORMAT_VERSION:
            raise StorageError(
                f"line 1: unsupported version {header.get('version')!r}"
            )
        try:
            d = int(header["d"])
            bounds = np.array(
                [[float(lo), float(hi)] for lo, hi in header["bounds"]]
            )
            space = ParamSpace(bounds)
        except (KeyError, TypeError, ValueError, OverflowError, ModelError) as exc:
            raise StorageError(f"line 1: bad header fields ({exc})") from None
        if space.dim != d:
            raise StorageError("line 1: bounds do not match the declared dimension")
        provenance = header.get("provenance") or {}
        if not isinstance(provenance, dict):
            raise StorageError("line 1: provenance is not a JSON object")

        ks, flat = [], []  # k per record, then every value in record order
        for lineno, line in enumerate(fh, start=2):
            tokens = line.split()
            if not tokens:
                continue
            try:
                k = int(tokens[0])
                values = [float(t) for t in tokens[1:]]
            except ValueError:
                raise StorageError(f"line {lineno}: malformed record") from None
            if k < 0 or len(values) != k * d:
                raise StorageError(
                    f"line {lineno}: expected {0 if k < 0 else k * d} values for k={tokens[0]}, got {len(values)}"
                )
            if not all(map(math.isfinite, values)):
                raise StorageError(f"line {lineno}: non-finite value")
            ks.append(k)
            flat.extend(values)
    return SampleSet.ingest_columns(space, np.array(flat).reshape(-1, d), ks, provenance)


# ---------------------------------------------------------------------------
# models and reports
# ---------------------------------------------------------------------------


def write_model(model: ApproxModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "bounds": [[float(lo), float(hi)] for lo, hi in model.space.bounds],
        "lam": float(model.lam),
        "components": [
            {
                "mu": [float(v) for v in c.mu],
                "sigma2": [float(v) for v in c.sigma2],
                "pi": float(c.pi),
            }
            for c in model.components
        ],
    }
    write_json(doc, path)


def read_model(path) -> ApproxModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_json_object(fh.read(), "model file")
    if doc.get("format") != MODEL_FORMAT or doc.get("version") != FORMAT_VERSION:
        raise StorageError("not a supported model file")
    try:
        space = ParamSpace(np.array(doc["bounds"], dtype=float))
        comps = [
            GaussianComponent(
                np.array(c["mu"], dtype=float),
                np.array(c["sigma2"], dtype=float),
                float(c["pi"]),
            )
            for c in doc["components"]
        ]
        return ApproxModel(space, comps, float(doc["lam"]))
    except (KeyError, TypeError, ValueError, OverflowError, ModelError) as exc:
        raise StorageError(f"bad model document ({exc})") from None


def write_report(report_dict: dict, path) -> None:
    write_json({"format": "transdim-report", "version": FORMAT_VERSION, **report_dict}, path)


# ---------------------------------------------------------------------------
# photoelectron traces
# ---------------------------------------------------------------------------


def write_pe_signal(signal: PECountSignal, path) -> None:
    """Two-column CSV (bin index, count) with the geometry in a comment."""
    write_csv(path, ["bin", "count"], ([i, int(c)] for i, c in enumerate(signal.counts)),
              preamble=f"# t0={_fmt(signal.t0)} t_delta={_fmt(signal.t_delta)}\n")


def read_pe_signal(path) -> PECountSignal:
    """Read a trace; geometry missing from the comment keeps PECountSignal's defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        comment = fh.readline().strip()
        geometry, first = {}, [comment]
        if comment.startswith("#"):
            try:
                parts = dict(p.split("=", 1) for p in comment[1:].split())
                geometry = {k: float(parts[k]) for k in ("t0", "t_delta") if k in parts}
            except ValueError:
                raise StorageError("malformed geometry comment") from None
            first = []
        try:
            rows = list(csv.reader(first)) + list(csv.reader(fh))
        except csv.Error as exc:
            raise StorageError(f"malformed CSV ({exc})") from None
        if not rows or rows[0] != ["bin", "count"]:
            raise StorageError("missing 'bin,count' header row")
        counts = []
        for lineno, row in enumerate(rows[1:], start=1):
            if not row:
                continue
            try:
                idx, val = int(row[0]), int(row[1])
            except (ValueError, IndexError):
                raise StorageError(f"record {lineno}: malformed row {row!r}") from None
            if idx != len(counts):
                raise StorageError(f"record {lineno}: bins out of order")
            counts.append(val)
        try:
            return PECountSignal(np.array(counts, dtype=np.int64), **geometry)
        except (OverflowError, ModelError) as exc:
            raise StorageError(str(exc)) from None


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def spawn_seeds(master: int, count: int) -> list[int]:
    """Deterministic per-replicate seeds derived from one master seed."""
    seqs = np.random.SeedSequence(master).spawn(count)
    return [int(s.generate_state(1, dtype=np.uint64)[0]) for s in seqs]
