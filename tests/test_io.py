"""State and report serialisation."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qreflect as qr
from qreflect.io import (
    StateFormatError,
    load_density,
    parse_density,
    read_state_file,
    state_from_dict,
    state_to_dict,
    write_state,
)

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)
ENTRIES = st.floats(min_value=-1.0, max_value=1.0) | JSON_SCALARS
STATE_DOCUMENTS = JSON_VALUES | st.fixed_dictionaries(
    {"n": st.integers(min_value=-1, max_value=7) | JSON_SCALARS, "format": st.sampled_from(["hermitian", "stokes", "csv"])},
    optional={
        "values": st.lists(ENTRIES, max_size=17) | JSON_VALUES,
        "re": st.lists(st.lists(ENTRIES, max_size=4), max_size=4) | JSON_VALUES,
        "im": st.lists(st.lists(ENTRIES, max_size=4), max_size=4) | JSON_VALUES,
    },
) | st.builds(
    lambda rest: {"n": 1, "format": "stokes", "values": [2**-0.5, *rest]},
    st.lists(ENTRIES, min_size=3, max_size=3),
)


class TestStateFiles:
    def test_hermitian_round_trip(self, tmp_path, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        path = tmp_path / "state.json"
        write_state(path, rho, seed=7)
        loaded = load_density(path)
        assert np.abs(loaded.matrix - rho.matrix).max() < 1e-15
        assert json.loads(path.read_text())["seed"] == 7

    def test_stokes_round_trip(self, tmp_path, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        path = tmp_path / "state.json"
        write_state(path, qr.to_stokes(rho))
        loaded = load_density(path)
        assert np.abs(loaded.matrix - rho.matrix).max() < 1e-12

    def test_precision_at_least_fifteen_digits(self, tmp_path):
        path = tmp_path / "third.json"
        write_state(path, qr.remix(qr.bell_state(), 1.0 / 3.0))
        doc = json.loads(path.read_text())
        assert doc["re"][0][0] == (1.0 / 3.0) * 0.5 + (2.0 / 3.0) * 0.25

    def test_missing_field_rejected(self):
        with pytest.raises(StateFormatError):
            state_from_dict({"n": 2, "format": "hermitian", "re": [[1]]})

    def test_bad_format_rejected(self):
        with pytest.raises(StateFormatError, match="format 'hermitian' or 'stokes'"):
            state_from_dict({"n": 2, "format": "csv"})

    def test_inconsistent_length_rejected(self):
        with pytest.raises(StateFormatError):
            state_from_dict({"n": 3, "format": "stokes", "values": [0.5] + [0.0] * 15})

    @pytest.mark.parametrize("n", [True, 0, 10**100, 2.0, pytest.param(None, id="no-n")])
    def test_bad_qubit_count_rejected(self, n):
        doc = {"n": n, "format": "hermitian", "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        if n is None:
            del doc["n"]
        with pytest.raises(StateFormatError, match="qubit counts"):
            state_from_dict(doc)

    @pytest.mark.parametrize(
        "values",
        [{"a": 1}, [10**400, 0, 0, 0], ["0.7071067811865476", "0", "0", "0"], [2**-0.5, True, False, 0]],
        ids=["dict", "beyond-float", "numeric-strings", "bools"],
    )
    def test_non_numeric_values_rejected(self, values):
        with pytest.raises(StateFormatError):
            state_from_dict({"n": 1, "format": "stokes", "values": values})

    @pytest.mark.parametrize(
        "re",
        [[[True, False], [False, False]], [[True, 0], [0, 0]], [[1, 0], [0, "0"]]],
        ids=["all-bool", "bool-and-int", "string"],
    )
    def test_non_numeric_hermitian_entries_rejected(self, re):
        doc = {"n": 1, "format": "hermitian", "re": re, "im": [[0, 0], [0, 0]]}
        with pytest.raises(StateFormatError):
            state_from_dict(doc)
        with pytest.raises(StateFormatError):
            parse_density(json.dumps(doc).encode(), "doc")

    @pytest.mark.parametrize(
        "field, matrix",
        [("re", [1, 0]), ("re", [[0.5, 0.0], [0.5]]), ("im", None), ("im", [[0, 0], 0])],
        ids=["flat", "ragged", "null", "number-row"],
    )
    def test_malformed_hermitian_arrays_get_the_schema_message(self, field, matrix):
        doc = {"n": 1, "format": "hermitian", "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]], field: matrix}
        with pytest.raises(StateFormatError, match=r"^'re'/'im' must be 2x2 arrays$"):
            state_from_dict(doc)
        with pytest.raises(StateFormatError, match=r"^'re'/'im' must be 2x2 arrays \(in doc\)$"):
            parse_density(json.dumps(doc).encode(), "doc")

    @pytest.mark.parametrize(
        "values", [5, None, {}, "", [0.5] + [0.0] * 3], ids=["number", "null", "object", "string", "short"]
    )
    def test_malformed_stokes_values_get_the_schema_message(self, values):
        # a number or null once raised Python's "object is not iterable", an object or a string float()'s message
        doc = {"n": 2, "format": "stokes", "values": values}
        with pytest.raises(StateFormatError, match=r"^'values' must be a flat array of 16 entries$"):
            state_from_dict(doc)
        with pytest.raises(StateFormatError, match=r"^'values' must be a flat array of 16 entries \(in doc\)$"):
            parse_density(json.dumps(doc).encode(), "doc")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, tmp_path, bad):
        hermitian = {"n": 1, "format": "hermitian", "re": [[bad, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        stokes = {"n": 1, "format": "stokes", "values": [2**-0.5, 0.0, bad, 0.0]}
        for doc in (hermitian, stokes):
            path = tmp_path / "state.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(StateFormatError, match="finite"):
                load_density(path)

    def test_nondensity_content_rejected(self, tmp_path):
        operator = qr.complement(qr.bell_state())  # valid Hermitian, not PSD
        path = tmp_path / "op.json"
        write_state(path, operator)
        with pytest.raises(StateFormatError):
            load_density(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(StateFormatError):
            load_density(path)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_a_path_that_cannot_be_read_is_named(self, tmp_path, kind):
        path = tmp_path / "missing.json" if kind == "missing" else tmp_path
        with pytest.raises(StateFormatError, match=f"^cannot read state file {re.escape(str(path))}: "):
            load_density(path)
        with pytest.raises(StateFormatError, match="^cannot read state file "):
            read_state_file(path)

    def test_a_file_descriptor_is_no_path(self):
        # open() would take an int as a file descriptor: read a pipe and close it, or write into it
        r, w = os.pipe()
        os.write(w, json.dumps(state_to_dict(qr.bell_state())).encode())
        os.close(w)
        r2, w2 = os.pipe()
        try:
            with pytest.raises(TypeError):
                read_state_file(r)
            with pytest.raises(TypeError):
                load_density(r)
            os.fstat(r)
            with pytest.raises(TypeError):
                write_state(w2, qr.bell_state())
            os.fstat(w2)
        finally:
            for fd in (r, r2, w2):
                os.close(fd)

    def test_a_bytes_path_is_read_and_written(self, tmp_path):
        path = os.fsencode(tmp_path / "state.json")
        write_state(path, qr.bell_state())
        assert read_state_file(path) == (tmp_path / "state.json").read_bytes()
        assert np.array_equal(load_density(path).matrix, qr.bell_state().matrix)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "format": "stokes", "values": [10**400, 0, 0, 0]},
            {"n": 1, "format": "hermitian", "re": [[1, 0], [0, -(10**400)]], "im": [[0, 0], [0, 0]]},
        ],
        ids=["stokes", "hermitian"],
    )
    def test_an_integer_past_the_float_range_is_past_the_magnitude_limit(self, doc):
        # numpy's conversion once gave Python's own "int too large to convert to float"
        message = r"^entries must be at most 1e\+150 in magnitude, got an integer past the float range"
        with pytest.raises(StateFormatError, match=message + "$"):
            state_from_dict(doc)
        with pytest.raises(StateFormatError, match=message + r" \(in doc\)$"):
            parse_density(json.dumps(doc).encode(), "doc")

    @settings(max_examples=300, deadline=None)
    @given(doc=STATE_DOCUMENTS)
    # off-diagonal entries of 9e307: their sum with the adjoint's once overflowed the kept Hermitian part
    @example(doc={"n": 1, "format": "stokes", "values": [2**-0.5, 0.0, 1.2711610061536464e308, 0.0]})
    def test_fuzzed_documents_parse_to_a_density_or_fail_cleanly(self, doc):
        try:
            rho = parse_density(json.dumps(doc).encode(), "fuzz")
        except StateFormatError:
            return
        m = rho.matrix
        assert np.isfinite(m).all()
        assert np.abs(m - m.conj().T).max() <= 1e-10
        assert abs(np.trace(m) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(m)[0] >= -1e-10

    @pytest.mark.parametrize("field", ["n", "format", "re", "im", "values"])
    def test_annotations_naming_a_schema_field_are_refused(self, tmp_path, field):
        # such a document would not read back: n=3 with format="stokes" once lost its 'values'
        for state in (qr.bell_state(), qr.to_stokes(qr.bell_state())):
            with pytest.raises(ValueError, match=f"schema fields, got \\['{field}'\\]"):
                state_to_dict(state, **{field: 3}, label="x")
            with pytest.raises(ValueError, match="schema fields"):
                write_state(tmp_path / "state.json", state, **{field: 3})
        assert not (tmp_path / "state.json").exists()
        assert state_to_dict(qr.bell_state(), label="x", seed=7)["seed"] == 7

    def test_serialising_other_types_rejected(self):
        with pytest.raises(TypeError):
            state_to_dict(np.eye(2))


class TestReportSerialisation:
    def test_report_to_dict(self):
        report = qr.ppt_test(qr.bell_state(), (1,))
        doc = report.to_dict()
        assert doc["criterion"] == "ppt"
        assert doc["verdict"] == "entangled"
        assert doc["subset"] == [1]
        assert doc["tolerance"] == pytest.approx(1e-10)
        json.dumps(doc)  # stays JSON-encodable

    def test_feasibility_flags_serialise(self):
        doc = qr.total_reflection_feasible(qr.maximally_mixed(2)).to_dict()
        assert set(doc["extra"]) == {"sufficient_max_eig", "exact_psd", "purity_bound", "rank_bound"}
        json.dumps(doc)
