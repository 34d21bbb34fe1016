"""SweepSpec construction, dict and file loading."""

import json

import pytest

from repro.sweep import SweepSpec, load_spec, spec_from_dict


class TestConstruction:
    def test_axes_and_base_freeze_to_tuples(self):
        spec = SweepSpec(name="s", experiment="E",
                         axes={"x": [1, 2], "y": [[3, 4], [5]]},
                         base={"z": 7})
        assert spec.axes == (("x", (1, 2)), ("y", ((3, 4), (5,))))
        assert spec.base == (("z", 7),)
        assert spec.axes_dict == {"x": (1, 2), "y": ((3, 4), (5,))}
        assert spec.base_dict == {"z": 7}
        hash(spec)  # frozen + fully tupled

    def test_ablation_spec_defaults_to_ablate_mode(self):
        assert SweepSpec(name="a", experiment="E", mode="ablate",
                         axes={"x": [1]}).mode == "ablate"
        assert SweepSpec(name="s", experiment="E").mode == "grid"

    def test_to_dict_round_trips_through_from_dict(self):
        spec = SweepSpec(name="s", experiment="E", mode="zip",
                         axes={"x": [1, 2]}, base={"z": 7},
                         seeds=(1, 2), scale=0.5, rank_by="score",
                         rank_descending=True, metrics=("score",))
        again = spec_from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()


class TestFromDict:
    def test_report_table_flattens(self):
        spec = spec_from_dict({
            "name": "s", "experiment": "E", "axes": {"x": [1]},
            "report": {"rank_by": "score", "rank_descending": True,
                       "metrics": ["score"]},
        })
        assert spec.rank_by == "score"
        assert spec.rank_descending is True
        assert spec.metrics == ("score",)

    def test_unknown_key_raises(self):
        with pytest.raises(TypeError, match="unknown sweep-spec key"):
            spec_from_dict({"name": "s", "experiment": "E", "axis": {}})
        with pytest.raises(TypeError, match="unknown report option"):
            spec_from_dict({"name": "s", "experiment": "E",
                            "report": {"sort_by": "x"}})

    def test_missing_required_keys_raise(self):
        with pytest.raises(TypeError, match="'experiment'"):
            spec_from_dict({"name": "s"})
        with pytest.raises(TypeError, match="'name'"):
            spec_from_dict({"experiment": "E"})

    def test_mode_ablate_yields_ablation_spec(self):
        spec = spec_from_dict({"name": "s", "experiment": "E",
                               "mode": "ablate", "axes": {"x": [1]}})
        assert spec == SweepSpec(name="s", experiment="E", mode="ablate",
                                 axes={"x": [1]})

    def test_non_dict_rejected(self):
        with pytest.raises(TypeError):
            spec_from_dict(["name", "experiment"])


class TestLoadSpec:
    DOC = {"name": "s", "experiment": "E", "axes": {"x": [1, 2]},
           "base": {"z": 3}, "scale": 0.25}

    def test_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.DOC))
        spec = load_spec(path)
        assert spec.name == "s"
        assert spec.axes == (("x", (1, 2)),)
        assert spec.scale == 0.25

    def test_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "s"\nexperiment = "E"\nscale = 0.25\n'
            '[axes]\nx = [1, 2]\n[base]\nz = 3\n')
        assert load_spec(path) == load_spec_json(tmp_path, self.DOC)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: s")
        with pytest.raises(ValueError, match="unsupported spec format"):
            load_spec(path)


def load_spec_json(tmp_path, doc):
    path = tmp_path / "equivalent.json"
    path.write_text(json.dumps(doc))
    return load_spec(path)
