import contextlib
import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nctorus import cli
from nctorus import documents as docs
from nctorus import exact_linalg as xl
from nctorus import module_sim as ms
from nctorus import torus_group as tg


def flip_doc(theta12="1/3"):
    return {
        "version": "nctorus/1",
        "n": 2,
        "g": {
            "A": [[0, 0], [0, 0]],
            "B": [[1, 0], [0, 1]],
            "C": [[1, 0], [0, 1]],
            "D": [[0, 0], [0, 0]],
        },
        "theta": [["0", theta12], [f"-{theta12}", "0"]],
    }


def scaled_flip_descriptor_doc(exponent, mirrored):
    """The flip descriptor, T = [[1/3, 0], [0, 1]] and S = [[0, -1], [3, 0]], with its u rows
    times c = 10**exponent and its u^ rows over c, or with the mirrored scaling."""
    c = 10**exponent
    if mirrored:
        T, S = [[f"1/{3 * c}", "0"], ["0", f"{c}"]], [["0", f"-1/{c}"], [f"{3 * c}", "0"]]
    else:
        T, S = [[f"{c}/3", "0"], ["0", f"1/{c}"]], [["0", f"-{c}"], [f"3/{c}", "0"]]
    desc = {"p": 1, "q": 0, "k": 0, "orders": [], "T": T, "S": S, "K": 1.0}
    desc["theta"], desc["theta_prime"] = [["0", "1/3"], ["-1/3", "0"]], [["0", "-3"], ["3", "0"]]
    return {"version": "nctorus/1", "module_descriptor": desc}


def flip_descriptor_doc(**fields):
    """The simulate document of the flip descriptor with the given fields replaced."""
    doc = scaled_flip_descriptor_doc(0, False)
    doc["module_descriptor"].update(fields)
    return doc


def run(tmp_path, argv, doc=None):
    if doc is not None:
        inp = tmp_path / "in.json"
        inp.write_text(docs.dumps(doc))
        argv = argv + ["--input", str(inp)]
    out = tmp_path / "out.json"
    code = cli.main(argv + ["--output", str(out)])
    return code, json.loads(out.read_text())


class TestRationalRoundTrip:
    def test_scalars(self):
        for s in ["0", "5", "-7", "1/3", "-22/7"]:
            assert docs.rat_matrix_doc(docs.parse_rat_matrix([[s]])) == [[s]]
        assert docs.parse_rat_matrix([[" +2/4 ", -3]]) == xl.mat([[F(1, 2), -3]])

    def test_matrix(self):
        M = xl.mat([[F(1, 3), -2], [F(5, 7), 0]])
        assert docs.parse_rat_matrix(docs.rat_matrix_doc(M)) == M

    def test_bad_rational(self):
        for s in ["1/0", "x", "0.5", "1e3", "1_0/3", "1 / 3", "1/-3", "", True, 0.5, None]:
            with pytest.raises(docs.ParseError):
                docs.parse_rat_matrix([[s]])

    @pytest.mark.parametrize(
        "rows, named",
        [
            ([["0", "a"], ["b", "a"]], "bad rational 'a'"),
            ([["0", "0"], ["b", "a"]], "bad rational 'b'"),
            ([["1/3", None], ["x", "x"]], "not a rational: None"),
            ([["x", None], ["x", "1"]], "bad rational 'x'"),
        ],
    )
    def test_first_bad_entry_in_row_major_order_is_named(self, rows, named):
        with pytest.raises(docs.ParseError) as err:
            docs.parse_rat_matrix(rows)
        assert str(err.value) == named

    @pytest.mark.parametrize("entry", [True, 1.5, None, [1], {"1": 2}])
    def test_non_rational_entries_raise_parse_errors(self, entry):
        """Unhashable entries included: only text entries are looked up as parsed text."""
        for rows in ([["1/2", entry]], [[entry, "1/2"]]):
            with pytest.raises(docs.ParseError, match="^not a rational: "):
                docs.parse_rat_matrix(rows)

    def test_texts_of_one_rational_give_one_value(self):
        assert docs.parse_rat_matrix([[" 1/2 "]]) == docs.parse_rat_matrix([["1/2"]])
        assert docs.parse_rat_matrix([[" 1/2 ", "1/2", "2/4"], ["0", 0, "-0"]]) == xl.mat([[F(1, 2)] * 3, [0] * 3])

    def test_theta_round_trip(self):
        theta = tg.random_theta(3, 4)
        assert docs.theta_from_doc(docs.theta_doc(theta)) == theta

    def test_no_floats_in_exact_output(self):
        doc = flip_doc()
        job = docs.load_job(doc)
        g = tg.check_membership(*job["g"])
        from nctorus.embedding import pipeline

        out = docs.pipeline_doc(pipeline(g, job["theta"]))
        for key in ("theta_prime", "T", "S", "Z", "phi_star", "curvature"):
            flat = [x for row in out[key] for x in row]
            assert all(isinstance(x, str) for x in flat), key


# ---------------------------------------------------------------------------
# the document writer

writer_scalars = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
writer_values = st.recursive(
    writer_scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(st.text(), writer_values, max_size=4))
def test_dumps_writes_the_bytes_of_json_indent(doc):
    """Nested empties, non-ASCII and control characters, bools, None, non-finite floats, big ints."""
    expect = json.dumps({"version": docs.FORMAT_VERSION, **doc}, sort_keys=True, indent=2, separators=(",", ": "))
    assert docs.dumps(doc) == expect + "\n"


class TestCommands:
    def test_check_ok(self, tmp_path):
        code, out = run(tmp_path, ["check"], flip_doc())
        assert code == 0 and out["valid"] is True

    def test_check_invalid_element(self, tmp_path):
        doc = flip_doc()
        doc["g"]["A"] = [[2, 0], [0, 2]]
        code, out = run(tmp_path, ["check"], doc)
        assert code == 1 and out["error"]["kind"] == "certificate"

    def test_act_identity(self, tmp_path):
        doc = flip_doc()
        doc["g"] = {
            "A": [[1, 0], [0, 1]],
            "B": [[0, 0], [0, 0]],
            "C": [[0, 0], [0, 0]],
            "D": [[1, 0], [0, 1]],
        }
        code, out = run(tmp_path, ["act"], doc)
        assert code == 0 and out["theta"] == doc["theta"]

    def test_act_flip(self, tmp_path):
        code, out = run(tmp_path, ["act"], flip_doc())
        assert code == 0
        assert out["theta"] == [["0", "-3"], ["3", "0"]]

    def test_act_undefined_exit_3(self, tmp_path):
        code, out = run(tmp_path, ["act"], flip_doc(theta12="0"))
        assert code == 3 and out["error"]["kind"] == "undefined"

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param(b"\xff\xfe{", "cannot read", id="not-utf8"),
            pytest.param(b"[" * 200000, "invalid JSON: maximum recursion depth", id="deep-nesting"),
            pytest.param(b'{"n": 1' + b"0" * 5000 + b"}", "invalid JSON: Exceeds the limit", id="long-integer"),
            pytest.param(docs.dumps(flip_doc("1e999999")).encode(), "bad rational '1e999999'", id="exponent"),
        ],
    )
    def test_unreadable_input_exit_2(self, tmp_path, data, message):
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        inp.write_bytes(data)
        code = cli.main(["act", "--input", str(inp), "--output", str(out)])
        error = json.loads(out.read_text())["error"]
        assert code == 2 and error["kind"] == "parse" and error["message"].startswith(message)

    def test_oversized_result_exit_2(self, tmp_path):
        """A result with a number past the digit limit gets the policy oversized inputs get."""
        big = "7" * 3000
        doc = {
            "version": "nctorus/1",
            "n": 3,
            "g": docs.group_doc(tg.sigma_flip([1, 2], 3)),
            "theta": [["0", f"1/{big}", big], [f"-1/{big}", "0", big], [f"-{big}", f"-{big}", "0"]],
        }
        code, out = run(tmp_path, ["act"], doc)
        message = f"result has a number of more than {sys.get_int_max_str_digits()} digits"
        assert code == 2 and out["error"] == {"kind": "parse", "message": message}
        with pytest.raises(docs.ParseError, match=message):
            docs.dumps({"n": 10**5000})

    def test_parse_error_exit_2(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text("{nope")
        out = tmp_path / "out.json"
        code = cli.main(["check", "--input", str(inp), "--output", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["error"]["kind"] == "parse"

    @pytest.mark.parametrize("command", ["act", "pipeline", "embed", "decompose", "simulate"])
    def test_dimension_mismatch_exit_2(self, tmp_path, command):
        doc = flip_doc()
        del doc["n"]
        doc["theta"] = [["0", "1/2", "1/3"], ["-1/2", "0", "1/5"], ["-1/3", "-1/5", "0"]]
        code, out = run(tmp_path, [command], doc)
        assert code == 2 and out["error"]["kind"] == "parse"
        assert out["error"]["message"] == "theta has size 3, g blocks have size 2"

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            pytest.param(
                "act", {**flip_doc(), "theta": [["0", "1/0"], ["-1/3", "0"]]},
                "bad rational '1/0': zero denominator", id="zero-denominator",
            ),
            pytest.param("act", {**flip_doc(), "theta": []}, "theta must be a non-empty list of rows", id="no-rows"),
            pytest.param(
                "act", {**flip_doc(), "theta": [["0", "1/3"], ["-1/3"]]}, "theta rows have unequal lengths", id="ragged"
            ),
            pytest.param(
                "check", {**flip_doc(), "g": {**flip_doc()["g"], "A": [["1/2", 0], [0, 0]]}},
                "g.A must have integer entries", id="g-rational",
            ),
            pytest.param("act", {**flip_doc(), "theta": [["0", "1/3"]]}, "theta must be square", id="theta-not-square"),
            pytest.param(
                "act", {"version": "nctorus/1", "n": 3, "theta": flip_doc()["theta"]},
                "theta has size 2, document says n=3", id="theta-size",
            ),
            pytest.param(
                "check", {**flip_doc(), "g": {"A": [[0]]}}, "g must be an object with blocks A, B, C, D", id="g-blocks"
            ),
            pytest.param(
                "check", {**flip_doc(), "g": {**flip_doc()["g"], "B": [[1, 0, 0], [0, 1, 0]]}},
                "g blocks must be square and of equal size", id="g-shapes",
            ),
            pytest.param("check", [flip_doc()], "document must be a JSON object", id="array"),
            pytest.param(
                "check", {**flip_doc(), "version": "nctorus/9"}, "unsupported document version 'nctorus/9'", id="version"
            ),
            pytest.param("simulate", {**flip_doc(), "options": [1]}, "options must be an object", id="options"),
            pytest.param(
                "simulate", {"version": "nctorus/1", "module_descriptor": []},
                "module_descriptor must be an object", id="descriptor",
            ),
            pytest.param(
                "simulate", flip_descriptor_doc(T=[["1/3", "0"], ["0", "1"], ["0", "0"]]),
                "T and S must have shape (n+q+2k) x n", id="T-shape",
            ),
            pytest.param(
                "simulate", flip_descriptor_doc(S=[["0"], ["3"]]), "T and S must have shape (n+q+2k) x n", id="S-shape"
            ),
            pytest.param(
                "simulate", flip_descriptor_doc(orders=[1]), "orders must list k positive integers", id="orders-length"
            ),
        ],
    )
    def test_parse_error_document(self, tmp_path, command, doc, message):
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        inp.write_text(json.dumps(doc))
        code = cli.main([command, "--input", str(inp), "--output", str(out)])
        assert code == 2
        assert json.loads(out.read_text()) == {"version": "nctorus/1", "error": {"kind": "parse", "message": message}}

    def test_missing_field_exit_2(self, tmp_path):
        doc = {"version": "nctorus/1", "n": 2, "theta": [["0", "1"], ["-1", "0"]]}
        code, out = run(tmp_path, ["act"], doc)
        assert code == 2

    @pytest.mark.parametrize(
        "command, fields, message",
        [
            *[(c, {}, "g") for c in ["check", "act", "normalize", "decompose", "embed", "pipeline"]],
            ("simulate", {}, "module_descriptor, or g and theta"),
            ("simulate", {"theta": flip_doc()["theta"]}, "module_descriptor, or g and theta"),
            ("act", {"g": flip_doc()["g"]}, "theta"),
            ("simulate", {"g": flip_doc()["g"]}, "theta"),
        ],
    )
    def test_missing_field_names_the_document_field(self, tmp_path, command, fields, message):
        code, out = run(tmp_path, [command], {"version": "nctorus/1", **fields})
        assert code == 2 and out["error"] == {"kind": "parse", "message": f"document is missing: {message}"}

    def test_normalize(self, tmp_path):
        code, out = run(tmp_path, ["normalize"], flip_doc())
        assert code == 0
        assert out["p"] == 1 and out["R0"] == [[1, 0], [0, 1]]

    def test_pipeline_flip(self, tmp_path):
        code, out = run(tmp_path, ["pipeline"], flip_doc())
        assert code == 0
        assert out["all_passed"] is True
        assert out["theta_prime"] == [["0", "-3"], ["3", "0"]]
        assert out["T"] == [["1/3", "0"], ["0", "1"]]
        assert out["S"] == [["0", "-1"], ["3", "0"]]
        assert out["phi_star"] == [["0", "3"], ["-3", "0"]]
        assert out["g_prime"]["B"] == [[-1, 0], [0, -1]]
        assert out["shear"] == [[0, 0], [0, 0]]
        assert out["basis_change"] == [[-1, 0], [0, -1]]
        assert [c["passed"] for c in out["certificates"]] == [True] * len(out["certificates"])
        kinds = [s["kind"] for s in out["chain"]["steps"]]
        assert kinds == ["iso_rho", "heisenberg", "iso_rho", "iso_mu"]

    def test_decompose_without_theta(self, tmp_path):
        doc = flip_doc()
        del doc["theta"]
        code, out = run(tmp_path, ["decompose"], doc)
        assert code == 0
        assert out["basis_change"] == [[-1, 0], [0, -1]]
        assert out["g_prime"]["C"] == [[-1, 0], [0, -1]]

    def test_simulate_from_job(self, tmp_path):
        code, out = run(
            tmp_path, ["simulate", "--seed", "5", "--trials", "10", "--samples", "4"], flip_doc()
        )
        assert code == 0 and out["passed"] is True
        assert out["residuals"]["module_relation"] < 1e-9

    def test_simulate_from_descriptor_doc(self, tmp_path):
        code, out = run(tmp_path, ["pipeline"], flip_doc())
        assert code == 0
        code2, out2 = run(
            tmp_path,
            ["simulate", "--seed", "5", "--trials", "5", "--samples", "4"],
            {"version": "nctorus/1", "module_descriptor": out["module_descriptor"]},
        )
        assert code2 == 0 and out2["passed"] is True

    @pytest.mark.parametrize("field", ["theta", "theta_prime"])
    def test_simulate_descriptor_theta_size_exit_2(self, tmp_path, field):
        code, out = run(tmp_path, ["pipeline"], flip_doc())
        desc = out["module_descriptor"]
        desc[field] = [["0", "1/2", "1/3"], ["-1/2", "0", "1/5"], ["-1/3", "-1/5", "0"]]
        code, out = run(tmp_path, ["simulate"], {"version": "nctorus/1", "module_descriptor": desc})
        assert code == 2 and out["error"] == {
            "kind": "parse",
            "message": "theta and theta_prime must have size n = 2p+q",
        }

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("p", 1.7, "p must be an integer >= 0", id="p-float"),
            pytest.param("p", True, "p must be an integer >= 0", id="p-bool"),
            pytest.param("q", "0", "q must be an integer >= 0", id="q-str"),
            pytest.param("k", 1.0, "k must be an integer >= 0", id="k-float"),
            pytest.param("orders", [1.0], "orders must be an integer >= 1", id="orders-float"),
            pytest.param("orders", [True], "orders must be an integer >= 1", id="orders-bool"),
            pytest.param("orders", ["1"], "orders must be an integer >= 1", id="orders-str"),
            pytest.param("orders", [None], "orders must list k positive integers", id="orders-null"),
            pytest.param("p", None, "module_descriptor is missing: p", id="p-null"),
        ],
    )
    def test_simulate_descriptor_non_integer_exit_2(self, tmp_path, field, value, message):
        # g is in special form with one torsion block of order 1 (k = 1)
        doc = {
            "version": "nctorus/1",
            "g": {
                "A": [[0, -2], [-2, 0]],
                "B": [[9, 0], [0, -9]],
                "C": [[1, 0], [0, -1]],
                "D": [[0, 4], [4, 0]],
            },
            "theta": [["0", "6"], ["-6", "0"]],
        }
        code, out = run(tmp_path, ["pipeline"], doc)
        desc = out["module_descriptor"]
        assert code == 0 and (desc["p"], desc["k"], desc["orders"]) == (1, 1, [1])
        desc[field] = value
        code, out = run(tmp_path, ["simulate"], {"version": "nctorus/1", "module_descriptor": desc})
        assert code == 2 and out["error"] == {"kind": "parse", "message": message}

    @pytest.mark.parametrize(
        "flip, matrix, row, entry, message",
        [
            pytest.param(False, "T", 2, "1/2", "T has a non-integer entry in its a rows", id="T-a-row"),
            pytest.param(False, "S", 2, "1/3", "S has a non-integer entry in its a rows", id="S-a-row"),
            pytest.param(True, "T", 2, "1/2", "T has a non-integer entry in its w rows", id="T-w-row"),
            pytest.param(True, "T", 3, "1/2", "T has a non-integer entry in its w^ rows", id="T-what-row"),
            pytest.param(True, "S", 3, "-1/7", "S has a non-integer entry in its w^ rows", id="S-what-row"),
        ],
    )
    def test_simulate_descriptor_non_integral_row_exit_2(self, tmp_path, flip, matrix, row, entry, message):
        # p = q = 1 (rows u, u^, a, a^), or p = k = 1 (rows u, u^, w, w^)
        if flip:
            doc = {
                "version": "nctorus/1",
                "g": {
                    "A": [[0, -2], [-2, 0]],
                    "B": [[9, 0], [0, -9]],
                    "C": [[1, 0], [0, -1]],
                    "D": [[0, 4], [4, 0]],
                },
                "theta": [["0", "6"], ["-6", "0"]],
            }
        else:
            g = tg.sigma_flip([1, 2], 3)
            theta = [["0", "1/2", "1/3"], ["-1/2", "0", "1/5"], ["-1/3", "-1/5", "0"]]
            doc = {"version": "nctorus/1", "g": docs.group_doc(g), "theta": theta}
        code, out = run(tmp_path, ["pipeline"], doc)
        desc = out["module_descriptor"]
        assert code == 0 and (desc["q"], desc["k"]) == ((0, 1) if flip else (1, 0))
        desc[matrix][row][0] = entry
        code, out = run(tmp_path, ["simulate"], {"version": "nctorus/1", "module_descriptor": desc})
        assert code == 2 and out["error"] == {"kind": "parse", "message": f"bad module_descriptor: {message}"}

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param({"T": [["1/2", "0"], ["0", "1"]]}, "T^t J T = theta does not hold", id="T-u-row"),
            pytest.param({"S": [["1/3", "0"], ["0", "1"]]}, "S^t J S = -theta' does not hold", id="S-is-T"),
            pytest.param({"S": [["0", "-1"], ["3", "3/2"]]}, "S^t J T is not integral", id="S-times-R"),
        ],
    )
    def test_simulate_descriptor_identity_exit_2(self, tmp_path, edit, message):
        # flip descriptor: T = [[1/3, 0], [0, 1]], S = [[0, -1], [3, 0]]; S R with
        # R = [[1, 1/2], [0, 1]] keeps S^t J S (det R = 1) and breaks S^t J T
        code, out = run(tmp_path, ["pipeline"], flip_doc())
        desc = out["module_descriptor"]
        assert code == 0 and desc["T"] == [["1/3", "0"], ["0", "1"]] and desc["S"] == [["0", "-1"], ["3", "0"]]
        desc.update(edit)
        code, out = run(tmp_path, ["simulate"], {"version": "nctorus/1", "module_descriptor": desc})
        assert code == 2 and out["error"] == {"kind": "parse", "message": f"bad module_descriptor: {message}"}

    @pytest.mark.parametrize(
        "exponent, mirrored",
        [
            pytest.param(170, False, id="170"),
            pytest.param(400, False, id="400"),
            pytest.param(306, True, id="mirrored-306"),
            pytest.param(307, True, id="mirrored-307"),
        ],
    )
    def test_simulate_descriptor_out_of_float_range_exit_2(self, tmp_path, exponent, mirrored):
        # u rows times c and u^ rows over c (or the mirror: u rows over c, u^
        # rows times c) is a symplectic change of coordinates: the identities
        # still hold exactly, but the shifts or the pairings leave float range
        code, out = run(tmp_path, ["simulate"], scaled_flip_descriptor_doc(exponent, mirrored))
        message = "module descriptor is out of float range for the simulation"
        assert code == 2 and out["error"] == {"kind": "parse", "message": message}

    @pytest.mark.parametrize(
        "exponent, mirrored, expected",
        [(7, False, 1), (6, True, 1), (100, False, 1), (5, True, 0), (6, False, 0)],
    )
    def test_float_precision_fails_the_scaled_descriptor(self, tmp_path, exponent, mirrored, expected):
        # short of overflow, the correct scaled flip bimodule still loses float
        # precision: with default options its worst residual exceeds the 1e-9
        # tolerance from c = 10**7 on (10**6 mirrored)
        code, out = run(tmp_path, ["simulate"], scaled_flip_descriptor_doc(exponent, mirrored))
        assert code == expected and out["passed"] is (expected == 0)

    @pytest.mark.parametrize("nan_at", [None, 0, 17])
    def test_simulate_nan_residual_exit_2(self, tmp_path, monkeypatch, nan_at):
        # a test function with NaN values (everywhere, or at one point of each
        # evaluated batch) gives a NaN residual, which max would drop
        gaussian = ms.random_gaussian

        def nan_gaussian(rng, d):
            f = gaussian(rng, d)

            def ev(m):
                values = f(m)
                for i in range(m.size) if nan_at is None else [nan_at]:
                    values[i] = complex(math.nan, 0.0)
                return values

            return ev

        monkeypatch.setattr(ms, "random_gaussian", nan_gaussian)
        code, out = run(tmp_path, ["simulate", "--trials", "3"], flip_doc())
        message = "module descriptor is out of float range for the simulation"
        assert code == 2 and out["error"] == {"kind": "parse", "message": message}

    def test_simulate_infinite_residual_exit_2(self, tmp_path, monkeypatch):
        # an infinite worst residual would print the non-JSON token Infinity
        monkeypatch.setattr(ms, "check_left_relation", lambda *args: math.inf)
        code, out = run(tmp_path, ["simulate", "--trials", "3"], flip_doc())
        message = "module descriptor is out of float range for the simulation"
        assert code == 2 and out["error"] == {"kind": "parse", "message": message}

    @settings(max_examples=60, deadline=None)
    @given(exponent=st.integers(0, 400), mirrored=st.booleans(), seed=st.integers(0, 3))
    @example(exponent=307, mirrored=True, seed=0)
    @example(exponent=308, mirrored=False, seed=0)
    def test_scaled_descriptor_ends_in_a_documented_exit_code(self, tmp_path_factory, exponent, mirrored, seed):
        doc = scaled_flip_descriptor_doc(exponent, mirrored)
        doc["options"] = {"trials": 3, "samples": 3, "seed": seed}
        code, out = run(tmp_path_factory.mktemp("scaled"), ["simulate"], doc)
        assert code in (0, 1, 2) and isinstance(out, dict)

    @pytest.mark.parametrize("command", ["simulate", "campaign"])
    @pytest.mark.parametrize(
        "flags, options",
        [
            pytest.param([], {"seed": {"a": 1}}, id="dict"),
            pytest.param([], {"seed": "7"}, id="str"),
            pytest.param([], {"seed": 1.5}, id="float"),
            pytest.param([], {"seed": True}, id="bool"),
            pytest.param([], {"seed": -1}, id="negative"),
            pytest.param(["--seed", "-1"], {}, id="flag-negative"),
        ],
    )
    def test_bad_seed_exit_2(self, tmp_path, command, flags, options):
        doc = flip_doc()
        doc["options"] = options
        argv = [command] + (["--n", "2"] if command == "campaign" else []) + flags
        code, out = run(tmp_path, argv, doc)
        assert code == 2 and out["error"] == {"kind": "parse", "message": "seed must be an integer >= 0"}

    @pytest.mark.parametrize(
        "command, flags, options, field",
        [
            pytest.param("simulate", ["--samples", "0"], {}, "samples", id="simulate-samples-flag-0"),
            pytest.param("simulate", ["--trials", "-1"], {}, "trials", id="simulate-trials-flag-neg"),
            pytest.param("simulate", [], {"trials": 0}, "trials", id="simulate-trials-0"),
            pytest.param("simulate", [], {"trials": True}, "trials", id="simulate-trials-bool"),
            pytest.param("simulate", [], {"samples": "x"}, "samples", id="simulate-samples-str"),
            pytest.param("simulate", [], {"samples": 1.5}, "samples", id="simulate-samples-float"),
            pytest.param("simulate", [], {"tolerance": "x"}, "tolerance", id="simulate-tolerance-str"),
            pytest.param("simulate", [], {"tolerance": 0}, "tolerance", id="simulate-tolerance-0"),
            pytest.param("simulate", ["--tolerance", "inf"], {}, "tolerance", id="simulate-tolerance-flag-inf"),
            pytest.param("campaign", [], {"trials": "x"}, "trials", id="campaign-trials-str"),
            pytest.param("campaign", ["--trials", "0"], {}, "trials", id="campaign-trials-flag-0"),
            pytest.param("campaign", [], {"word_length": 0}, "word_length", id="campaign-word-length-0"),
        ],
    )
    def test_bad_option_exit_2(self, tmp_path, command, flags, options, field):
        doc = flip_doc()
        doc["options"] = options
        code, out = run(tmp_path, [command] + flags, doc)
        if field == "tolerance":
            message = "tolerance must be a positive finite number"
        else:
            message = f"{field} must be an integer >= 1"
        assert code == 2 and out["error"] == {"kind": "parse", "message": message}

    @pytest.mark.parametrize(
        "command, field, floor",
        [
            ("simulate", "samples", 1),
            ("simulate", "trials", 1),
            ("simulate", "seed", 0),
            ("campaign", "trials", 1),
            ("campaign", "word_length", 1),
            ("campaign", "seed", 0),
        ],
    )
    def test_null_option_exit_2(self, tmp_path, command, field, floor):
        """A null option is a value other than an integer, not an omitted one."""
        doc = flip_doc()
        doc["options"] = {field: None}
        code, out = run(tmp_path, [command], doc)
        assert code == 2 and out["error"] == {"kind": "parse", "message": f"{field} must be an integer >= {floor}"}

    def test_check_one_by_one_exit_2(self, tmp_path):
        doc = {"version": "nctorus/1", "g": {"A": [[1]], "B": [[0]], "C": [[0]], "D": [[1]]}}
        code, out = run(tmp_path, ["check"], doc)
        assert code == 2 and out["error"] == {"kind": "parse", "message": "n must be an integer >= 2"}

    def test_campaign(self, tmp_path):
        code, out = run(tmp_path, ["campaign", "--n", "2", "--seed", "7", "--trials", "4"])
        assert code == 0
        assert out["all_passed"] is True and out["defined"] >= 3

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_campaign_small_n_exit_2(self, tmp_path, n):
        code, out = run(tmp_path, ["campaign", "--n", n, "--seed", "7", "--trials", "2"])
        assert code == 2 and out["error"] == {"kind": "parse", "message": "n must be an integer >= 2"}

    def test_simulate_tolerance_gate(self, tmp_path):
        code, out = run(
            tmp_path,
            ["simulate", "--seed", "5", "--trials", "3", "--samples", "4", "--tolerance", "1e-30"],
            flip_doc(),
        )
        assert code == 1 and out["passed"] is False

    def test_campaign_records_certificate_failures(self, tmp_path, monkeypatch):
        from nctorus.embedding import EmbeddingError

        def boom(fac, theta):
            raise EmbeddingError("T_pullback", "forced failure")

        monkeypatch.setattr(cli, "embed", boom)
        code, out = run(tmp_path, ["campaign", "--n", "2", "--seed", "1", "--trials", "2"])
        assert code == 1 and out["all_passed"] is False
        failed = [r for r in out["results"] if r.get("defined")]
        assert failed and all(r["failed_certificate"] == "T_pullback" for r in failed)

    def test_skipped_certificate_exit_1(self, tmp_path, monkeypatch):
        """A certificate that never ran fails the run, though none raised."""
        from nctorus import embedding as eb

        monkeypatch.setattr(eb, "verify_duality", lambda *args: None)
        job = docs.load_job(flip_doc())
        assert not eb.pipeline(tg.check_membership(*job["g"]), job["theta"]).all_passed()
        code, out = run(tmp_path, ["pipeline"], flip_doc())
        assert code == 1 and out["all_passed"] is False
        assert "pairing_integral" not in [c["name"] for c in out["certificates"]]

    def test_skipped_factor_certificate_exit_1(self, tmp_path, monkeypatch):
        """decompose compares its certificates against the seven of factor."""
        from nctorus import embedding as eb

        decompose = eb.decompose
        monkeypatch.setattr(eb, "decompose", lambda g, gp, certs: decompose(g, gp, eb.CertificateLog()))
        doc = flip_doc()
        del doc["theta"]
        code, out = run(tmp_path, ["decompose"], doc)
        assert code == 1 and out["all_passed"] is False and out["version"] == "nctorus/2"
        assert [c["name"] for c in out["certificates"]] == ["torsion_normal_form", "gprime_integral", "gprime_membership"]
        code, out = run(tmp_path, ["pipeline"], flip_doc())
        assert code == 1 and out["all_passed"] is False and len(out["certificates"]) == 18

    @pytest.mark.parametrize("fault", ["congruence", "pivot", "smith"])
    def test_kernel_fault_is_a_certificate_failure(self, tmp_path, monkeypatch, fault):
        """A wrong exact-kernel result ends in an exit-1 error document, not a traceback.

        The kernels return unchecked, so each fault is caught where its fact is
        decided: congruence steps that miss Q by torsion_normal_form, a halved
        first symplectic pivot by T_pullback, a Smith V started at diag(2, 1, 1, 1)
        by rho(R0).
        """
        if fault == "congruence":
            congr_add = xl._congr_add
            monkeypatch.setattr(xl, "_congr_add", lambda W, Q, *step: congr_add(W, [row[:] for row in Q], *step))
            expect = {"kind": "certificate", "name": "torsion_normal_form"}
        elif fault == "pivot":
            factor, lowest_terms, calls = xl.symplectic_factor_rational, xl._lowest_terms, []

            def halved_first_pivot(rows, den):  # the factorization's first reduction is its first pivot
                calls.append(den)
                return lowest_terms(rows, 2 * den if len(calls) == 1 else den)

            def factor_with_halved_first_pivot(A):
                with monkeypatch.context() as m:
                    m.setattr(xl, "_lowest_terms", halved_first_pivot)
                    return factor(A)

            monkeypatch.setattr(xl, "symplectic_factor_rational", factor_with_halved_first_pivot)
            expect = {"kind": "certificate", "name": "T_pullback"}
        else:
            smith, identity_rows = xl.smith_normal_form, xl._identity_rows

            def smith_with_doubled_v(M):
                made = []

                def rows(n):  # V is the one identity made
                    made.append(identity_rows(n))
                    if len(made) == 1:
                        made[-1][0][0] = 2
                    return made[-1]

                with monkeypatch.context() as m:
                    m.setattr(xl, "_identity_rows", rows)
                    return smith(M)

            monkeypatch.setattr(xl, "smith_normal_form", smith_with_doubled_v)
            expect = {"kind": "certificate", "message": "rho needs a matrix with determinant +-1"}
        doc = {
            "version": "nctorus/1",
            "n": 4,  # p = 2, q = 0, torsion orders (4, 1)
            "g": {
                "A": [[0, 0, 1, 0], [0, -1, 1, 0], [-1, 0, 0, 0], [1, 0, 0, 1]],
                "B": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                "C": [[-1, -2, 2, 3], [0, 0, -2, 0], [-2, 0, -4, -2], [-2, 0, -3, 0]],
                "D": [[0, 1, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 1], [0, 0, 0, 1]],
            },
            "theta": [["0", "-7/5", "1", "4"], ["7/5", "0", "5/4", "-2"], ["-1", "-5/4", "0", "1"], ["-4", "2", "-1", "0"]],
        }
        code, out = run(tmp_path, ["pipeline"], doc)
        assert code == 1 and expect.items() <= out["error"].items()

    def test_decompose_ignores_an_undefined_theta(self, tmp_path):
        """The flip at theta = 0 is undefined for act (exit 3); decompose does not read theta."""
        doc = flip_doc("0")
        assert run(tmp_path, ["act"], doc)[0] == 3
        code, out = run(tmp_path, ["decompose"], doc)
        assert code == 0 and out["all_passed"] is True and out["basis_change"] == [[-1, 0], [0, -1]]

    @pytest.mark.parametrize("command", ["pipeline", "embed", "simulate"])
    def test_undefined_theta_fails_before_g_is_factored(self, tmp_path, monkeypatch, command):
        """The flip at theta = 0 is undefined: the action raises before factor runs."""
        from nctorus import embedding as eb

        factored = []
        factor = eb.factor
        monkeypatch.setattr(eb, "factor", lambda g: factored.append(g) or factor(g))
        code, out = run(tmp_path, [command], flip_doc("0"))
        assert code == 3 and out["error"]["kind"] == "undefined"
        assert factored == []

    def test_campaign_reads_no_n_from_options(self, tmp_path):
        code, out = run(tmp_path, ["campaign"], {"version": "nctorus/1", "options": {"n": 2, "trials": 1}})
        assert code == 2 and out["error"] == {"kind": "parse", "message": "campaign needs n (document field or --n)"}

    @pytest.mark.parametrize("case", ["g missing", "C = 0", "unwritable output"])
    def test_error_documents_carry_the_command_version(self, tmp_path, case):
        """decompose errors are nctorus/2 like its results; the same runs of pipeline say nctorus/1."""
        doc = flip_doc()
        if case == "g missing":
            del doc["g"]
        elif case == "C = 0":
            doc["g"] = {"A": [[1, 0], [0, 1]], "B": [[1, 0], [0, 1]], "C": [[0, 0], [0, 0]], "D": [[1, 0], [0, 1]]}
        inp = tmp_path / "in.json"
        inp.write_text(docs.dumps(doc))
        for command, version in (("decompose", "nctorus/2"), ("pipeline", "nctorus/1")):
            out = tmp_path / ("missing/out.json" if case == "unwritable output" else "out.json")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([command, "--input", str(inp), "--output", str(out)])
            err = json.loads(stdout.getvalue() if case == "unwritable output" else out.read_text())
            assert code == (1 if case == "C = 0" else 2) and "error" in err, command
            assert err["version"] == version, command

    def test_campaign_deterministic(self, tmp_path):
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        assert cli.main(["campaign", "--n", "3", "--seed", "9", "--trials", "3", "--output", str(out1)]) == 0
        assert cli.main(["campaign", "--n", "3", "--seed", "9", "--trials", "3", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pipeline_deterministic_bytes(self, tmp_path):
        doc = flip_doc()
        inp = tmp_path / "in.json"
        inp.write_text(docs.dumps(doc))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert cli.main(["pipeline", "--input", str(inp), "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# the input contract: every document ends in a documented exit code


CONTRACT_COMMANDS = ["check", "act", "normalize", "decompose", "embed", "pipeline", "simulate", "campaign"]
RATIONAL_STRINGS = ["0", "-2", "1/3", " 5/4 ", "0.5", "1e3", "1_0/3", "1/0", "", "x", "--1", "1/-3"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4)
    | st.sampled_from(RATIONAL_STRINGS),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)


@functools.cache
def valid_documents():
    """A 2x2 pipeline job and a simulate job on its module descriptor, both with small options."""
    job = flip_doc()
    job["options"] = {"trials": 2, "samples": 2}
    loaded = docs.load_job(job)
    from nctorus.embedding import pipeline

    res = pipeline(tg.check_membership(*loaded["g"]), loaded["theta"])
    sim = {"version": "nctorus/1", "module_descriptor": docs.pipeline_doc(res)["module_descriptor"]}
    sim["options"] = dict(job["options"])
    return job, sim


def slots(value, path=()):
    """Every (path, key) of an entry inside the nested lists and objects of value."""
    keys = range(len(value)) if isinstance(value, list) else value if isinstance(value, dict) else ()
    for key in keys:
        yield path, key
        yield from slots(value[key], path + (key,))


@st.composite
def contract_documents(draw):
    """An arbitrary JSON value, or a valid document with a few fields dropped, replaced or resized."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = copy.deepcopy(draw(st.sampled_from(valid_documents())))
    for _ in range(draw(st.integers(1, 3))):
        path, key = draw(st.sampled_from(list(slots(doc))))
        parent = doc
        for step in path:
            parent = parent[step]
        action = draw(st.sampled_from(["drop", "replace", "rational", "grow"]))
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = draw(json_values)
        elif action == "rational":
            parent[key] = draw(st.sampled_from(RATIONAL_STRINGS))
        elif isinstance(parent[key], list) and parent[key]:
            parent[key].append(copy.deepcopy(parent[key][-1]))
        if not list(slots(doc)):
            break
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=contract_documents())
def test_every_document_ends_in_a_documented_exit_code(tmp_path_factory, doc):
    work = tmp_path_factory.mktemp("contract")
    inp, out = work / "in.json", work / "out.json"
    inp.write_text(json.dumps(doc))
    for command in CONTRACT_COMMANDS:
        code = cli.main([command, "--input", str(inp), "--output", str(out)])
        assert code in (0, 1, 2, 3), command
        assert isinstance(json.loads(out.read_text()), dict), command


def run_cli_process(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_loads_no_numpy(tmp_path):
    """The library is stdlib-only: with numpy, sympy and hypothesis unimportable, pipeline,
    simulate and the inner product run."""
    job, out, sim = tmp_path / "job.json", tmp_path / "out.json", tmp_path / "sim.json"
    job.write_text(json.dumps(flip_doc()))  # the README example job
    code = f"""if True:
        import json, sys
        for name in ("numpy", "sympy", "hypothesis"):
            sys.modules[name] = None
        from nctorus import cli, documents as docs, module_sim as ms
        assert cli.main(["pipeline", "--input", {str(job)!r}, "--output", {str(out)!r}]) == 0
        assert cli.main(["simulate", "--input", {str(job)!r}, "--output", {str(sim)!r}, "--trials", "2"]) == 0
        with open({str(out)!r}) as fh:
            d = docs.descriptor_from_doc(json.load(fh)["module_descriptor"])
        f = ms.gaussian(d)
        assert abs(ms.inner_product_numeric(f, f, [0, 0], d) - 2 ** -0.5) < 1e-9
    """
    proc = run_cli_process("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "case", ["passing job, missing output dir", "parse error, missing output dir", "unknown command", "seed abc"]
)
def test_bad_output_or_argv_exits_2_without_traceback(tmp_path, case):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(flip_doc()))
    bad.write_text("{not json")
    missing = str(tmp_path / "missing" / "dir" / "x.json")
    argv = {
        "passing job, missing output dir": ["act", "--input", str(good), "--output", missing],
        "parse error, missing output dir": ["act", "--input", str(bad), "--output", missing],
        "unknown command": ["frobnicate"],
        "seed abc": ["act", "--input", str(good), "--seed", "abc"],
    }[case]
    proc = run_cli_process("-m", "nctorus.cli", *argv)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    if "output" in case:
        err = json.loads(proc.stdout)["error"]
        assert err["kind"] == "parse" and err["message"].startswith(f"cannot write {missing}: ")


class TestOutputFile:
    """--output is overwritten in place and cut at the end of the new document."""

    def stdout_of(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def test_short_document_over_a_long_one_leaves_only_the_short_one(self, tmp_path):
        good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "out.json"
        good.write_text(json.dumps(flip_doc()))
        bad.write_text("{not json")
        assert cli.main(["pipeline", "--input", str(good), "--output", str(out)]) == 0
        long_size = out.stat().st_size
        assert self.stdout_of(["pipeline", "--input", str(bad), "--output", str(out)]) == (2, "")
        code, expected = self.stdout_of(["pipeline", "--input", str(bad)])
        assert code == 2 and out.read_bytes() == expected.encode()
        assert len(expected) < long_size

    def test_device_output(self):
        assert cli.main(["campaign", "--n", "2", "--trials", "1", "--output", os.devnull]) == 0

    def test_directory_output_exits_2_with_the_error_on_stdout(self, tmp_path):
        code, text = self.stdout_of(["campaign", "--n", "2", "--trials", "1", "--output", str(tmp_path)])
        err = json.loads(text)["error"]
        assert code == 2 and err["kind"] == "parse" and err["message"].startswith(f"cannot write {tmp_path}: ")

    def test_input_file_as_output_is_replaced_by_the_result(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(flip_doc(), indent=8))
        code, expected = self.stdout_of(["act", "--input", str(job)])
        assert code == 0 and len(expected) < job.stat().st_size
        assert cli.main(["act", "--input", str(job), "--output", str(job)]) == 0
        assert job.read_bytes() == expected.encode()


# The flags each command takes beyond --input and --output; every other one is refused
TAKES = {"simulate": {"--seed", "--trials", "--samples", "--tolerance"}, "campaign": {"--seed", "--trials", "--n"}}


@pytest.mark.parametrize("flag", ["--input", "--output", "--seed", "--trials", "--samples", "--tolerance", "--n"])
@pytest.mark.parametrize("command", ["check", "act", "normalize", "decompose", "embed", "pipeline", "simulate", "campaign"])
def test_parser_offers_exactly_the_flags_a_command_takes(command, flag):
    argv = [command, flag, "1"]
    if flag in ("--input", "--output") or flag in TAKES.get(command, ()):
        assert getattr(cli.build_parser().parse_args(argv), flag[2:]) is not None
        return
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as e:
        cli.build_parser().parse_args(argv)
    assert e.value.code == 2


ARGV_FLAGS = ["--input", "--output", "--seed", "--trials", "--samples", "--tolerance", "--n"]
ARGV_BOUNDS = {"--trials": 2, "--samples": 2, "--n": 3}  # keeps each run small
ARGV_ODD_VALUES = ["-1", "abc", "nan", "inf", ""]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_command_line_ends_in_a_documented_exit_code(tmp_path_factory, data):
    """Any command and flags, with paths to a file, a directory, a missing directory, a 300-character name or ''."""
    work = tmp_path_factory.mktemp("argv")
    job = json.dumps(valid_documents()[0])
    (work / "job.json").write_text(job)
    (work / "out.json").write_text("stale")
    paths = [work, work / "missing" / "x.json", work / ("x" * 300)]
    argv = [data.draw(st.sampled_from(list(cli.COMMANDS)))]
    for flag in data.draw(st.lists(st.sampled_from(ARGV_FLAGS), max_size=4)):
        if flag in ("--input", "--output"):
            own = work / ("job.json" if flag == "--input" else "out.json")
            value = data.draw(st.sampled_from([str(p) for p in [own, *paths]] + [""]))
        else:
            value = data.draw(st.integers(0, ARGV_BOUNDS.get(flag, 3)).map(str) | st.sampled_from(ARGV_ODD_VALUES))
        argv += [flag, value]
    stdout = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(job)  # an omitted or empty --input reads this, not the real stdin
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as e:  # argparse refused the command line
        assert e.code == 2, argv
        return
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2, 3), argv
    text = stdout.getvalue() or Path(cli.build_parser().parse_args(argv).output).read_text()
    assert isinstance(json.loads(text), dict), argv
