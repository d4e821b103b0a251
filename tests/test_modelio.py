import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sideinfo as si
from sideinfo.errors import EmptySample, SchemaError, UnknownSymbol, ValidationError
from sideinfo.cli import cli_dispatch
from sideinfo.modelio import parse_document, parse_model_text, serialize_model

from conftest import random_joint, random_stationary_markov


_P2 = [["0.5", "0.5"], ["0", "0"]]
_VAR_PAYLOAD = {"a": [[["0.1", "0"], ["0", "0.1"]]], "sigma": [["1", "0"], ["0", "1"]]}

# Header fields that parsed at schema version 1 by truncation or by bool == int
# and are now rejected, each with the field its error names.
MALFORMED_HEADERS = [
    ({"kind": "joint", "rows": 2.9, "cols": 2, "p": _P2}, "rows"),
    ({"kind": "joint", "rows": 2, "cols": "2", "p": _P2}, "cols"),
    ({"kind": "markov_process", "nx": "1", "ny": 1, "initial": ["1.0"], "kernel": [["1.0"]]}, "nx"),
    ({"kind": "markov_process", "nx": 1, "ny": 1.5, "initial": ["1.0"], "kernel": [["1.0"]]}, "ny"),
    ({"kind": "transform", "map": [True, 2, True]}, "map[0]"),
    ({"kind": "joint3", "dims": [2.0, 2, 2], "p": [[["0.125"] * 2] * 2] * 2}, "dims[0]"),
    ({"kind": "var_model", "order": "1", **_VAR_PAYLOAD}, "order"),
    ({"kind": "dist", "version": True, "p": ["1.0"]}, "version"),
]


class TestParse:
    def test_witness_joint_document(self, witness_joint):
        doc = {
            "kind": "joint",
            "rows": 3,
            "cols": 2,
            "p": [["0", "0.25"], ["0", "0.25"], ["0.5", "0"]],
        }
        mf = parse_document(doc)
        assert mf.kind == "joint"
        assert np.array_equal(mf.payload.table, witness_joint.table)

    def test_builtin_loss_document(self):
        mf = parse_document({"kind": "loss", "builtin": "log", "n": 3})
        assert mf.payload.name == "log"
        assert mf.payload.n == 3

    def test_malformed_sum_cites_field(self):
        doc = {"kind": "joint", "rows": 2, "cols": 2, "p": [["0.6", "0.4"], ["0.1", "0.1"]]}
        with pytest.raises(ValidationError) as exc:
            parse_document(doc)
        assert exc.value.field == "p"

    def test_non_string_probability_rejected(self):
        doc = {"kind": "dist", "p": [0.5, 0.5]}
        with pytest.raises(ValidationError) as exc:
            parse_document(doc)
        assert "p[0]" in exc.value.field

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "mystery", "p": []})

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "dist"})

    def test_bad_json_cites_line(self):
        with pytest.raises(SchemaError) as exc:
            parse_model_text('{"kind": "dist",\n "p": [}')
        assert "line 2" in str(exc.value)

    def test_matrix_loss_with_inf(self):
        doc = {"kind": "loss", "matrix": [["0", "inf"], ["1", "0"]]}
        mf = parse_document(doc)
        assert mf.payload.matrix[0, 1] == math.inf

    def test_nan_rejected(self):
        doc = {"kind": "loss", "matrix": [["0", "nan"], ["1", "0"]]}
        with pytest.raises(ValidationError) as exc:
            parse_document(doc)
        assert exc.value.field == "matrix[0][1]"

    def test_transform_one_based(self):
        mf = parse_document({"kind": "transform", "map": [1, 1, 2]})
        assert mf.payload.mapping == (0, 0, 1)

    def test_version_checked(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "dist", "version": 99, "p": ["1.0"]})

    @pytest.mark.parametrize("doc, field", MALFORMED_HEADERS)
    def test_header_field_must_be_json_integer(self, doc, field, tmp_path, capsys):
        with pytest.raises(ValidationError) as exc:
            parse_document(doc)
        assert exc.value.field == field
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli_dispatch(["mi", "--joint", str(path)]) == 65
        assert capsys.readouterr().err.endswith(f"(field: {field})\n")

    def test_ragged_joint3_names_the_plane(self):
        p = [[["0.125"] * 2] * 2, [["0.125"] * 2, ["0.25"]]]
        with pytest.raises(ValidationError, match="ragged rows") as exc:
            parse_document({"kind": "joint3", "dims": [2, 2, 2], "p": p})
        assert exc.value.field == "p[1]"

    @pytest.mark.parametrize("labels", [[1, 3], [0, 1], [2, 2]])
    def test_transform_labels_reported_one_based(self, labels):
        with pytest.raises(ValidationError) as exc:
            parse_document({"kind": "transform", "map": labels})
        assert str(exc.value) == f"labels must be contiguous from 1, got {sorted(set(labels))} (field: map)"

    def test_empty_transform_map_rejected(self, tmp_path, capsys):
        doc = {"kind": "transform", "map": []}
        with pytest.raises(ValidationError) as exc:
            parse_document(doc)
        assert str(exc.value) == "a transform maps at least one symbol (field: map)"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli_dispatch(["mi", "--joint", str(path)]) == 65
        assert capsys.readouterr().err.endswith("(field: map)\n")

    @pytest.mark.parametrize(
        "doc, text",
        [
            ({"kind": "dist", "p": ["0.5", "0.9"]}, "entries sum to 1.4, not 1 within 1e-09"),
            ({"kind": "dist", "p": ["1.2", "-0.2"]}, "negative mass beyond tolerance: min entry -0.2"),
            ({"kind": "joint", "rows": 1, "cols": 2, "p": [["0.5", "inf"]]}, "entries must be finite"),
            ({"kind": "joint3", "dims": [1, 1, 2], "p": [[["0.5", "0.6"]]]}, "entries sum to 1.1, not 1 within 1e-09"),
        ],
    )
    def test_payload_checked_as_a_distribution(self, doc, text):
        with pytest.raises(ValidationError) as exc:
            parse_document(doc)
        assert str(exc.value) == f"{text} (field: p)"

    def test_joint3_planes_of_unequal_shape_are_ragged(self):
        p = [[["0.25"] * 2] * 2, [["0.25"] * 3] * 2]
        with pytest.raises(ValidationError, match="ragged rows") as exc:
            parse_document({"kind": "joint3", "dims": [2, 2, 2], "p": p})
        assert exc.value.field == "p"


class TestRoundTrip:
    def test_seeded_corpus_exact(self):
        rng = np.random.default_rng(42)
        models = []
        for _ in range(50):
            n = int(rng.integers(2, 6))
            models.append(si.Dist(rng.dirichlet(np.ones(n))))
        for _ in range(50):
            models.append(random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        for _ in range(30):
            t = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
            models.append(si.Joint(t))
        for _ in range(30):
            models.append(random_stationary_markov(int(rng.integers(0, 10_000))))
        for _ in range(20):
            while True:
                a = rng.uniform(-0.6, 0.6, size=(2, 2))
                if max(abs(np.linalg.eigvals(a))) < 0.95:
                    break
            s = rng.uniform(0.2, 1.0, size=2)
            rho = rng.uniform(-0.5, 0.5)
            sigma = np.array(
                [[s[0], rho * math.sqrt(s[0] * s[1])], [rho * math.sqrt(s[0] * s[1]), s[1]]]
            )
            models.append(si.VarModel(coeffs=a[None], sigma=sigma))
        for _ in range(20):
            n = int(rng.integers(2, 6))
            labels = rng.integers(0, n, size=n)
            _, contiguous = np.unique(labels, return_inverse=True)
            order = {}
            remap = []
            for v in contiguous:
                order.setdefault(int(v), len(order))
                remap.append(order[int(v)])
            models.append(si.Transform(tuple(remap)))
        assert len(models) == 200
        for obj in models:
            doc = serialize_model(obj)
            again = parse_document(json.loads(json.dumps(doc))).payload
            if isinstance(obj, si.Dist):
                assert np.array_equal(obj.probs, again.probs)
            elif isinstance(obj, si.Joint):
                assert np.array_equal(obj.table, again.table)
            elif isinstance(obj, si.MarkovJointProcess):
                assert np.array_equal(obj.initial, again.initial)
                assert np.array_equal(obj.kernel, again.kernel)
            elif isinstance(obj, si.VarModel):
                assert np.array_equal(obj.coeffs, again.coeffs)
                assert np.array_equal(obj.sigma, again.sigma)
            elif isinstance(obj, si.Transform):
                assert obj.mapping == again.mapping

    def test_builtin_loss_round_trip(self):
        for name in ("log", "zero_one", "brier", "spherical", "absolute_ordered"):
            l = si.builtin_loss(name, 4)
            again = parse_document(serialize_model(l)).payload
            assert again.name == name

    def test_matrix_loss_round_trip(self):
        mat = np.array([[0.0, 1.5, math.inf], [2.0, 0.0, 0.25]])
        l = si.ActionMatrixLoss(matrix=mat)
        again = parse_document(serialize_model(l)).payload
        assert np.array_equal(again.matrix, mat)

    def test_a_name_alone_is_no_builtin(self):
        # once any loss named like a built-in was written as that built-in: the rule -q_x named "log"
        # came back as log loss, and a weighted matrix named "zero_one" as the plain zero-one matrix
        fake_log = si.ScoringRuleLoss(
            eval_fn=lambda x, q: -float(q[x]), n=3, proper=True, name="log", vector_fn=lambda q: -np.asarray(q)
        )
        improper_log = dataclasses.replace(si.builtin_loss("log", 3), proper=False)
        for rule in (fake_log, improper_log):
            with pytest.raises(SchemaError):
                serialize_model(rule)
        weighted = si.ActionMatrixLoss(matrix=np.array([[0.0, 2.0, 2.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), name="zero_one")
        doc = serialize_model(weighted)
        assert "builtin" not in doc
        assert np.array_equal(parse_document(doc).payload.matrix, weighted.matrix)
        same = si.ActionMatrixLoss(matrix=1.0 - np.eye(3), name="zero_one")
        assert serialize_model(same) == {"version": 1, "kind": "loss", "builtin": "zero_one", "n": 3}

    def test_file_round_trip(self, tmp_path, witness_joint):
        path = tmp_path / "joint.json"
        si.write_model(witness_joint, path)
        mf = si.parse_model(path)
        assert np.array_equal(mf.payload.table, witness_joint.table)

    def test_version_field_present(self, witness_joint):
        assert serialize_model(witness_joint)["version"] == 1


# One object of every kind and the exact text its document dumps to, key order
# included (`--pretty` and witness reports print documents in this order).
DOCUMENT_TEXTS = [
    (si.validate_dist([0.25, 0.125, 0.625]),
     '{"version": 1, "kind": "dist", "p": ["0.25", "0.125", "0.625"]}'),
    (si.validate_joint([[0.1, 0.2], [0.3, 0.4]]),
     '{"version": 1, "kind": "joint", "rows": 2, "cols": 2, "p": [["0.1", "0.2"], ["0.3", "0.4"]]}'),
    (si.Joint(np.arange(1, 9).reshape(2, 2, 2) / 36),
     '{"version": 1, "kind": "joint3", "dims": [2, 2, 2], "p": '
     '[[["0.027777777777777776", "0.05555555555555555"], ["0.08333333333333333", "0.1111111111111111"]], '
     '[["0.1388888888888889", "0.16666666666666666"], ["0.19444444444444445", "0.2222222222222222"]]]}'),
    (si.builtin_loss("brier", 3),
     '{"version": 1, "kind": "loss", "builtin": "brier", "n": 3}'),
    (si.ActionMatrixLoss(matrix=np.array([[0.0, np.inf], [1.5, 0.0]])),
     '{"version": 1, "kind": "loss", "matrix": [["0.0", "inf"], ["1.5", "0.0"]]}'),
    (si.Transform((0, 0, 1)),
     '{"version": 1, "kind": "transform", "map": [1, 1, 2]}'),
    (si.MarkovJointProcess(1, 2, np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]])),
     '{"version": 1, "kind": "markov_process", "nx": 1, "ny": 2, "initial": ["0.5", "0.5"], '
     '"kernel": [["0.9", "0.1"], ["0.2", "0.8"]]}'),
    (si.VarModel(coeffs=np.array([[[0.5, 0.1], [0.0, 0.25]], [[-0.125, 0.0], [0.0625, 0.1]]]),
                 sigma=np.array([[1.0, 0.3], [0.3, 2.0]])),
     '{"version": 1, "kind": "var_model", "order": 2, "a": [[["0.5", "0.1"], ["0.0", "0.25"]], '
     '[["-0.125", "0.0"], ["0.0625", "0.1"]]], "sigma": [["1.0", "0.3"], ["0.3", "2.0"]]}'),
]
DOCUMENT_IDS = ["dist", "joint", "joint3", "builtin-loss", "matrix-loss-inf", "transform", "markov", "var2"]


class TestDocumentText:
    @pytest.mark.parametrize("obj, text", DOCUMENT_TEXTS, ids=DOCUMENT_IDS)
    def test_serialized_text_pinned(self, obj, text):
        assert json.dumps(serialize_model(obj)) == text

    @pytest.mark.parametrize("obj, text", DOCUMENT_TEXTS, ids=DOCUMENT_IDS)
    def test_text_parses_back_to_itself(self, obj, text):
        assert json.dumps(serialize_model(parse_document(json.loads(text)))) == text


def _simplex_rows(shape):
    """Arrays whose last-axis rows are probability vectors, with zeros and subnormals."""
    return (
        arrays(np.float64, shape, elements=st.floats(0.0, 1.0))
        .filter(lambda a: np.all(a.sum(axis=-1) > 0))
        .map(lambda a: a / a.sum(axis=-1, keepdims=True))
    )


@st.composite
def joints(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    flat = draw(_simplex_rows((int(np.prod(shape)),)))
    return si.validate_joint(flat.reshape(shape))


@st.composite
def markov_models(draw):
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = nx * ny
    return si.MarkovJointProcess(nx, ny, draw(_simplex_rows((q,))), draw(_simplex_rows((q, q))))


def _entry_paths(node, path=()):
    """Paths to the decimal-string leaves of a nested payload list."""
    if isinstance(node, list):
        return [leaf for i, v in enumerate(node) for leaf in _entry_paths(v, path + (i,))]
    return [path]


class TestProperties:
    @given(joint=joints())
    def test_joint_round_trip_bit_exact(self, joint):
        again = parse_document(json.loads(json.dumps(serialize_model(joint)))).payload
        assert again.table.shape == joint.table.shape
        assert again.table.tobytes() == joint.table.tobytes()

    @given(model=markov_models())
    def test_markov_round_trip_bit_exact(self, model):
        again = parse_document(json.loads(json.dumps(serialize_model(model)))).payload
        assert (again.nx, again.ny) == (model.nx, model.ny)
        assert again.initial.tobytes() == model.initial.tobytes()
        assert again.kernel.tobytes() == model.kernel.tobytes()

    @given(
        model=st.one_of(joints(), markov_models(), _simplex_rows((3,)).map(si.Dist)),
        bad=st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-INF"]),
        data=st.data(),
    )
    def test_non_finite_entry_rejected(self, model, bad, data):
        doc = serialize_model(model)
        key = data.draw(st.sampled_from([k for k in ("p", "initial", "kernel") if k in doc]))
        path = data.draw(st.sampled_from(_entry_paths(doc[key])))
        node = doc[key]
        for i in path[:-1]:
            node = node[i]
        node[path[-1]] = bad
        with pytest.raises(ValidationError) as exc:
            parse_document(doc)
        if bad.lower() == "nan":  # NaN never decodes, so the error names the entry
            assert exc.value.field == key + "".join(f"[{i}]" for i in path)
        else:
            assert exc.value.field in (key, "markov_process")


class TestEmpiricalJoint:
    def test_counting(self):
        j = si.empirical_joint([(1, 1), (1, 1), (2, 2), (2, 2)], 2, 2)
        assert np.allclose(j.table, [[0.5, 0.0], [0.0, 0.5]])

    def test_single_pair_point_mass(self):
        j = si.empirical_joint([(1, 2)], 2, 2)
        assert np.array_equal(j.table, [[0.0, 1.0], [0.0, 0.0]])

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            si.empirical_joint([], 2, 2)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            si.empirical_joint([(1, 3)], 2, 2)

    def test_monte_carlo_close_to_truth(self):
        rng = np.random.default_rng(123)
        truth = rng.dirichlet(np.ones(6)).reshape(2, 3)
        flat = truth.reshape(-1)
        draws = rng.choice(6, size=100_000, p=flat)
        pairs = [(int(d // 3) + 1, int(d % 3) + 1) for d in draws]
        j = si.empirical_joint(pairs, 2, 3)
        tv = 0.5 * float(np.abs(j.table - truth).sum())
        assert tv < 0.02


class TestSampleCsv:
    def test_read(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("x,y\n1,1\n2,2\n1,2\n")
        assert si.read_sample_csv(path) == [(1, 1), (2, 2), (1, 2)]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("a,b\n1,1\n")
        with pytest.raises(ValidationError):
            si.read_sample_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("x,y\n")
        with pytest.raises(EmptySample):
            si.read_sample_csv(path)
