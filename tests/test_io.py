"""State, mask, and report serialisation."""

import json

import numpy as np
import pytest

import qreflect as qr
from qreflect.io import (
    StateFormatError,
    load_density,
    mask_from_dict,
    mask_to_dict,
    state_from_dict,
    state_to_dict,
    write_state,
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
        with pytest.raises(StateFormatError):
            state_from_dict({"n": 2, "format": "csv"})

    def test_inconsistent_length_rejected(self):
        with pytest.raises(StateFormatError):
            state_from_dict({"n": 3, "format": "stokes", "values": [0.5] + [0.0] * 15})

    @pytest.mark.parametrize("n", [True, 0, 10**100])
    def test_bad_qubit_count_rejected(self, n):
        with pytest.raises(StateFormatError):
            state_from_dict({"n": n, "format": "hermitian", "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})

    def test_non_numeric_values_rejected(self):
        with pytest.raises(StateFormatError):
            state_from_dict({"n": 1, "format": "stokes", "values": {"a": 1}})

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

    def test_serialising_other_types_rejected(self):
        with pytest.raises(TypeError):
            state_to_dict(np.eye(2))


class TestMaskFiles:
    def test_round_trip(self):
        mask = qr.mask_total_reflection(2)
        doc = mask_to_dict(mask)
        assert doc["n"] == 2
        assert doc["signs"][0] == 1
        back = mask_from_dict(doc)
        assert np.array_equal(back.signs, mask.signs)
        assert back.name == mask.name

    def test_bad_signs_rejected(self):
        with pytest.raises(StateFormatError):
            mask_from_dict({"n": 1, "signs": [1, 0, 1, 1]})


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
