"""Persistence round-trips and error reporting.

The sample file format prints floats at 17 significant digits, which is
enough to reproduce any float64 exactly: round-trips must be bit-identical,
not merely close.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from transdim import cli
from transdim.model import (
    ApproxModel,
    GaussianComponent,
    ParamSpace,
    SampleSet,
)
from transdim.muons import PECountSignal
from transdim.storage import (
    StorageError,
    read_model,
    read_pe_signal,
    read_samples,
    spawn_seeds,
    write_model,
    write_pe_signal,
    write_report,
    write_samples,
)


def _random_sample_set(n, d, bounds, seed, k_max=6):
    rng = np.random.default_rng(seed)
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    raw = []
    for _ in range(n):
        k = int(rng.integers(0, k_max + 1))
        raw.append(lo + (hi - lo) * rng.random((k, d)))
    prov = {"sampler": "test", "seed": int(seed), "extras": {"alpha": 0.25}}
    return SampleSet.ingest(ParamSpace(bounds), raw, prov)


# ---------------------------------------------------------------------------
# sample files
# ---------------------------------------------------------------------------


def test_samples_round_trip_bit_identical(tmp_path):
    ss = _random_sample_set(10_000, 1, np.array([[0.0, math.pi]]), seed=42)
    path = tmp_path / "draws.samples"
    write_samples(ss, path)
    back = read_samples(path)
    assert len(back) == len(ss)
    assert back.space.dim == 1
    assert np.array_equal(back.space.bounds, ss.space.bounds)
    assert back.provenance == ss.provenance
    for a, b in zip(ss.samples, back.samples):
        assert a.k == b.k
        assert np.array_equal(a.components, b.components)  # bitwise


def test_samples_round_trip_two_dims(tmp_path):
    bounds = np.array([[0.0, 750.0], [0.0, 500.0]])
    ss = _random_sample_set(500, 2, bounds, seed=7, k_max=4)
    path = tmp_path / "d2.samples"
    write_samples(ss, path)
    back = read_samples(path)
    assert back.space.dim == 2
    for a, b in zip(ss.samples, back.samples):
        assert np.array_equal(a.components, b.components)


def test_empty_sample_set_round_trips(tmp_path):
    ss = SampleSet.ingest(ParamSpace(np.array([[0.0, 1.0]])), [], {"sampler": "none"})
    path = tmp_path / "empty.samples"
    write_samples(ss, path)
    back = read_samples(path)
    assert len(back) == 0
    assert back.provenance == {"sampler": "none"}


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.samples"
    header = {"format": "transdim-samples", "version": 1, "d": 1, "bounds": [[0.0, 1.0]]}
    path.write_text(json.dumps(header) + "\n\n1 0.5\n\n0\n")
    back = read_samples(path)
    assert [s.k for s in back.samples] == [1, 0]


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "empty"
    path.write_text("")
    with pytest.raises(StorageError, match="empty file"):
        read_samples(path)


def test_header_not_json_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_text("not json\n")
    with pytest.raises(StorageError, match="line 1"):
        read_samples(path)


def test_header_not_an_object_rejected(tmp_path):
    path = tmp_path / "list.samples"
    path.write_text("[]\n1 0.5\n")
    with pytest.raises(StorageError, match="line 1: header is not a JSON object"):
        read_samples(path)


def test_wrong_format_name_rejected(tmp_path):
    path = tmp_path / "other"
    path.write_text(json.dumps({"format": "something-else", "version": 1}) + "\n")
    with pytest.raises(StorageError, match="not a transdim-samples file"):
        read_samples(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "v9"
    header = {"format": "transdim-samples", "version": 9, "d": 1, "bounds": [[0, 1]]}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(StorageError, match="version"):
        read_samples(path)


def test_malformed_record_names_its_line(tmp_path):
    ss = _random_sample_set(10, 1, np.array([[0.0, 1.0]]), seed=3)
    path = tmp_path / "cut.samples"
    write_samples(ss, path)
    lines = path.read_text().splitlines()
    lines[4] = "2 0.25 banana"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StorageError, match="line 5"):
        read_samples(path)


def test_wrong_value_count_rejected(tmp_path):
    path = tmp_path / "short.samples"
    header = {"format": "transdim-samples", "version": 1, "d": 1, "bounds": [[0.0, 1.0]]}
    path.write_text(json.dumps(header) + "\n2 0.5\n")
    with pytest.raises(StorageError, match="line 2"):
        read_samples(path)


def test_non_finite_value_rejected_on_read(tmp_path):
    path = tmp_path / "nan.samples"
    header = {"format": "transdim-samples", "version": 1, "d": 1, "bounds": [[0.0, 1.0]]}
    path.write_text(json.dumps(header) + "\n1 nan\n")
    with pytest.raises(StorageError, match="non-finite"):
        read_samples(path)


def test_non_finite_value_refused_on_write(tmp_path):
    space = ParamSpace(np.array([[0.0, 1.0]]))
    bad = SampleSet(space, np.array([[math.inf]]), [1])
    with pytest.raises(StorageError, match="non-finite"):
        write_samples(bad, tmp_path / "inf.samples")


def test_refused_write_leaves_the_existing_file_unchanged(tmp_path):
    path = tmp_path / "keep.samples"
    write_samples(_random_sample_set(20, 1, np.array([[0.0, 1.0]]), seed=5), path)
    before = path.read_bytes()
    bad = SampleSet(ParamSpace(np.array([[0.0, 1.0]])), np.array([[0.5], [math.nan]]), [0, 2])
    with pytest.raises(StorageError, match="non-finite"):
        write_samples(bad, path)
    assert path.read_bytes() == before


def test_out_of_box_records_rejected_at_ingest(tmp_path):
    path = tmp_path / "oob.samples"
    header = {"format": "transdim-samples", "version": 1, "d": 1, "bounds": [[0.0, 1.0]]}
    path.write_text(json.dumps(header) + "\n1 2.5\n1 0.5\n")
    back = read_samples(path)
    assert len(back) == 1
    assert back.rejected == 1


# ---------------------------------------------------------------------------
# model and report files
# ---------------------------------------------------------------------------


def test_model_round_trip_exact(tmp_path):
    space = ParamSpace(np.array([[0.0, math.pi]]))
    comps = [
        GaussianComponent(np.array([0.6300000000000001]), np.array([1.234e-5]), 0.97),
        GaussianComponent(np.array([0.73]), np.array([2.5e-5]), 0.9999999999999),
    ]
    model = ApproxModel(space, comps, 0.0123456789012345678)
    path = tmp_path / "model.json"
    write_model(model, path)
    back = read_model(path)
    assert back.L == 2
    assert back.lam == model.lam
    assert np.array_equal(back.space.bounds, model.space.bounds)
    for a, b in zip(model.components, back.components):
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.sigma2, b.sigma2)
        assert a.pi == b.pi


def test_model_wrong_format_rejected(tmp_path):
    path = tmp_path / "notmodel.json"
    path.write_text(json.dumps({"format": "transdim-samples", "version": 1}))
    with pytest.raises(StorageError, match="not a supported model"):
        read_model(path)


def test_model_not_an_object_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(StorageError, match="model file is not a JSON object"):
        read_model(path)


def test_model_bad_document_rejected(tmp_path):
    path = tmp_path / "broken.json"
    doc = {"format": "transdim-model", "version": 1, "bounds": [[0, 1]], "lam": -2.0,
           "components": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(StorageError, match="bad model document"):
        read_model(path)


def test_report_file_has_format_fields(tmp_path):
    path = tmp_path / "report.json"
    write_report({"p_k": [0.5, 0.5], "lambda": 0.1}, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "transdim-report"
    assert doc["version"] == 1
    assert doc["p_k"] == [0.5, 0.5]


# ---------------------------------------------------------------------------
# photoelectron trace files
# ---------------------------------------------------------------------------


def test_pe_signal_round_trip(tmp_path):
    sig = PECountSignal(np.array([0, 3, 17, 2, 0, 1]), t0=-50.0, t_delta=12.5)
    path = tmp_path / "trace.csv"
    write_pe_signal(sig, path)
    back = read_pe_signal(path)
    assert np.array_equal(back.counts, sig.counts)
    assert back.t0 == sig.t0
    assert back.t_delta == sig.t_delta


def test_pe_signal_default_geometry_without_comment(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("bin,count\n0,4\n1,0\n")
    back = read_pe_signal(path)
    assert np.array_equal(back.counts, [4, 0])
    assert back.t0 == 0.0
    assert back.t_delta == 25.0


def test_pe_signal_missing_header_row_rejected(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0,4\n1,0\n")
    with pytest.raises(StorageError, match="bin,count"):
        read_pe_signal(path)


def test_pe_signal_out_of_order_bins_rejected(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("bin,count\n0,4\n2,1\n")
    with pytest.raises(StorageError, match="out of order"):
        read_pe_signal(path)


def test_pe_signal_negative_count_rejected(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("bin,count\n0,-3\n")
    with pytest.raises(StorageError):
        read_pe_signal(path)


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


def test_spawn_seeds_deterministic_and_distinct():
    a = spawn_seeds(123, 8)
    b = spawn_seeds(123, 8)
    c = spawn_seeds(124, 8)
    assert a == b
    assert len(set(a)) == 8
    assert a != c
    assert all(isinstance(s, int) and s >= 0 for s in a)


# ---------------------------------------------------------------------------
# fuzzing: malformed input is a StorageError and exit code 2, never a crash
# ---------------------------------------------------------------------------

# JSON made from the formats' own keys, wrapped in headers that pass the
# format and version checks, so that examples reach the field parsing too
_KEYS = st.sampled_from(
    ["format", "version", "d", "bounds", "provenance", "lam", "components", "mu", "sigma2", "pi"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_SAMPLES_HEADER = st.fixed_dictionaries(
    {"format": st.just("transdim-samples"), "version": st.just(1)},
    optional={"d": _JSON, "bounds": _JSON, "provenance": _JSON},
)
_MODEL_DOC = st.fixed_dictionaries(
    {"format": st.just("transdim-model"), "version": st.just(1)},
    optional={
        "bounds": _JSON,
        "lam": _JSON,
        "components": st.lists(st.dictionaries(st.sampled_from(["mu", "sigma2", "pi"]), _JSON)) | _JSON,
    },
)
_LINES = st.lists(st.text(max_size=12), max_size=4).map("\n".join)
SAMPLES_TEXT = st.text() | st.builds(
    lambda head, body: head + "\n" + body,
    st.builds(json.dumps, _JSON | _SAMPLES_HEADER) | st.text(max_size=12),
    _LINES | st.lists(st.lists(st.integers(-1, 3) | st.floats(), max_size=4), max_size=3).map(
        lambda rows: "\n".join(" ".join(map(str, r)) for r in rows)
    ),
)
MODEL_TEXT = st.text() | st.builds(json.dumps, _JSON | _MODEL_DOC)
PE_TEXT = st.text() | st.builds(
    lambda comment, rows: f"{comment}\nbin,count\n{rows}",
    st.sampled_from(["# t0=0 t_delta=25", "#", ""]) | st.text(max_size=16).map(lambda t: "#" + t),
    st.lists(st.tuples(st.integers(-1, 4), st.integers()), max_size=4).map(
        lambda rows: "\n".join(f"{a},{b}" for a, b in rows)
    ),
)
_FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    space = ParamSpace(np.array([[0.0, 1.0]]))
    write_samples(SampleSet.ingest(space, [np.array([[0.3]]), np.array([[0.3], [0.7]])]), root / "ok.samples")
    write_model(ApproxModel(space, [GaussianComponent(np.array([0.3]), np.array([0.01]), 0.9)], 0.2),
                root / "ok.json")
    return root


def _rejects(reader, path) -> bool:
    try:
        reader(path)
    except StorageError:
        return True
    return False


@given(text=SAMPLES_TEXT)
@_FUZZ
def test_fuzz_read_samples_raises_only_storage_error(fuzz_dir, text):
    path = fuzz_dir / "fuzz.samples"
    path.write_text(text, encoding="utf-8")
    _rejects(read_samples, path)


@given(text=MODEL_TEXT)
@_FUZZ
def test_fuzz_read_model_raises_only_storage_error(fuzz_dir, text):
    path = fuzz_dir / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    _rejects(read_model, path)


@given(text=PE_TEXT)
@_FUZZ
def test_fuzz_read_pe_signal_raises_only_storage_error(fuzz_dir, text):
    path = fuzz_dir / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    _rejects(read_pe_signal, path)


@given(text=SAMPLES_TEXT)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_cli_fit_and_report_on_bad_samples(fuzz_dir, text):
    path = fuzz_dir / "cli.samples"
    path.write_text(text, encoding="utf-8")
    rejected = _rejects(read_samples, path)
    fit = cli.main(["fit", "--samples", str(path), "--seed", "1", "--iterations", "2",
                    "--window", "1", "--out", str(fuzz_dir / "cli_model.json")])
    report = cli.main(["report", "--model", str(fuzz_dir / "ok.json"), "--samples", str(path),
                       "--outdir", str(fuzz_dir / "cli_report")])
    if rejected:
        assert fit == 2 and report == 2
    else:
        assert fit in (0, 2) and report in (0, 2)


@given(text=MODEL_TEXT)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_cli_report_on_bad_model(fuzz_dir, text):
    path = fuzz_dir / "cli_model_in.json"
    path.write_text(text, encoding="utf-8")
    rejected = _rejects(read_model, path)
    report = cli.main(["report", "--model", str(path), "--samples", str(fuzz_dir / "ok.samples"),
                       "--outdir", str(fuzz_dir / "cli_report")])
    assert report == 2 if rejected else report in (0, 2)


# records of k = 0..5 points, d = 1 or 2, in and out of the unit box
RECORDS = st.integers(1, 2).flatmap(lambda d: st.tuples(st.just(d), st.lists(
    st.lists(st.lists(st.floats(-0.5, 1.5), min_size=d, max_size=d), max_size=5), max_size=12)))


@given(case=RECORDS)
@_FUZZ
def test_columns_keep_the_in_box_records_in_order(fuzz_dir, case):
    d, records = case
    space = ParamSpace(np.tile([0.0, 1.0], (d, 1)))
    raw = [np.array(r, dtype=float).reshape(-1, d) for r in records]
    kept = [r for r in raw if np.all((r >= 0.0) & (r <= 1.0))]
    ss = SampleSet.ingest(space, raw)
    assert ss.rejected == len(raw) - len(kept)
    assert ss.k_values().tolist() == [r.shape[0] for r in kept]
    assert len(ss.samples) == len(kept)
    assert all(np.array_equal(s.components, r) for s, r in zip(ss.samples, kept))

    path = fuzz_dir / "columns.samples"
    write_samples(ss, path)
    back = read_samples(path)
    assert back.points.tobytes() == ss.points.tobytes()  # bit for bit, -0.0 included
    assert back.k.tolist() == ss.k.tolist() and back.rejected == 0

    groups = list(ss.by_k())
    assert [k for k, _, _ in groups] == sorted(set(ss.k.tolist()))
    for k, idx, block in groups:
        assert idx.tolist() == [i for i, r in enumerate(kept) if r.shape[0] == k]
        assert block.tobytes() == np.stack([kept[i] for i in idx]).tobytes()
