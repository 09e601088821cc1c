"""Structure-file round trips, rejection diagnostics, and CLI exit codes."""

import json
import os
import subprocess
import sys

import pytest

from hopfcyc import structfile
from hopfcyc.cli import main
from hopfcyc.corpus import get_hopf


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def emit(name, outdir="."):
    assert main(["examples", "emit", name, "--out", str(outdir)]) == 0


class TestRoundTrip:
    def test_emit_parse_reemit_byte_identical(self, workdir):
        emit("sweedler-h4")
        raw = (workdir / "sweedler-h4.json").read_bytes()
        d = structfile.load_file(str(workdir / "sweedler-h4.json"))
        H = structfile.hopf_from_dict(d)
        again = structfile.canonical_bytes(structfile.hopf_to_dict(H, "sweedler-h4"))
        assert raw == again

    def test_every_example_emits_and_parses(self, workdir):
        for name in structfile.example_names():
            d, deps = structfile.build_example(name)
            blob = structfile.canonical_bytes(d)
            parsed = json.loads(blob)
            assert parsed["schema"] == structfile.SCHEMA
            if parsed["kind"] != "hopf":
                hd = deps[0][1]
                H = structfile.hopf_from_dict(hd)
                structfile.object_from_dict(parsed, hd, H)

    def test_carrier_hash_reference(self, workdir):
        emit("sweedler-h4.regular-comodule-algebra")
        cd = structfile.load_file(str(workdir / "sweedler-h4.regular-comodule-algebra.json"))
        hd = structfile.load_file(str(workdir / "sweedler-h4.json"))
        assert cd["hopf"]["sha256"] == structfile.content_hash(hd)


class TestRejections:
    def test_zero_denominator_scalar(self, workdir):
        emit("sweedler-h4")
        d = structfile.load_file("sweedler-h4.json")
        d["tensors"]["mult"][0][2] = "1/0"
        with pytest.raises(structfile.ParseError, match="division by zero"):
            structfile.hopf_from_dict(d)

    def test_index_out_of_range(self, workdir):
        emit("sweedler-h4")
        d = structfile.load_file("sweedler-h4.json")
        d["tensors"]["antipode"].append([9, 0, "1"])
        with pytest.raises(structfile.ParseError, match="out of range"):
            structfile.hopf_from_dict(d)

    def test_broken_antipode_rejected_with_witness(self, workdir):
        from hopfcyc import StructureError

        emit("sweedler-h4")
        d = structfile.load_file("sweedler-h4.json")
        # replace the antipode by the identity matrix
        d["tensors"]["antipode"] = [[i, i, "1"] for i in range(4)]
        with pytest.raises(StructureError) as err:
            structfile.hopf_from_dict(d)
        assert err.value.check.condition.startswith("antipode")
        assert "x" in err.value.check.witness.location

    def test_hash_mismatch(self, workdir):
        emit("sweedler-h4.coeff-eps-g")
        hd = structfile.load_file("sweedler-h4.json")
        hd["name"] = "tampered"
        H = structfile.hopf_from_dict(hd)
        cd = structfile.load_file("sweedler-h4.coeff-eps-g.json")
        with pytest.raises(structfile.ParseError, match="hash mismatch"):
            structfile.object_from_dict(cd, hd, H)

    def test_unsupported_schema(self, workdir):
        emit("kZ2")
        d = json.loads((workdir / "kZ2.json").read_text())
        d["schema"] = "hopfcyc/999"
        (workdir / "kZ2.json").write_text(json.dumps(d))
        with pytest.raises(structfile.ParseError, match="schema"):
            structfile.load_file("kZ2.json")


class TestCliExitCodes:
    def test_check_hopf_pass(self, workdir, capsys):
        emit("sweedler-h4")
        assert main(["check", "hopf", "sweedler-h4.json"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_hopf_refuses_a_scalar_that_is_not_exact(self, workdir, capsys):
        # json reads 1.00000000000000000001 as 1.0, so this file used to pass
        emit("sweedler-h4")
        d = structfile.load_file("sweedler-h4.json")
        entry = next(e for e in d["tensors"]["mult"] if e[2] == "1")
        shown = entry[:2] + [1.0]
        entry[2] = "@raw@"
        (workdir / "broken.json").write_text(
            json.dumps(d).replace('"@raw@"', "1.00000000000000000001"), encoding="utf-8")
        capsys.readouterr()
        assert main(["check", "hopf", "broken.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: mult: scalar must be a string or an integer, found 1.0 in %r\n" % (shown,))

    def test_check_hopf_fail(self, workdir, capsys):
        emit("sweedler-h4")
        d = structfile.load_file("sweedler-h4.json")
        d["tensors"]["antipode"] = [[i, i, "1"] for i in range(4)]
        structfile.write_file("broken.json", d)
        assert main(["check", "hopf", "broken.json"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "antipode" in out

    def test_check_sayd_witness_exit_1(self, workdir, capsys):
        emit("sweedler-h4.coeff-eps-unit")
        code = main(["check", "coefficient", "--flavor", "sayd",
                     "--hopf", "sweedler-h4.json",
                     "--coeff", "sweedler-h4.coeff-eps-unit.json"])
        assert code == 1
        out = capsys.readouterr().out
        assert "x" in out  # witness h = x

    def test_check_carrier_sayd_pass(self, workdir, capsys):
        emit("sweedler-h4.regular-comodule-algebra")
        emit("sweedler-h4.coeff-eps-g")
        code = main(["check", "coefficient", "--flavor", "ah-sayd",
                     "--hopf", "sweedler-h4.json",
                     "--carrier", "sweedler-h4.regular-comodule-algebra.json",
                     "--coeff", "sweedler-h4.coeff-eps-g.json",
                     "--max-degree", "2"])
        assert code == 0

    def test_check_hcc_flavor(self, workdir):
        emit("sweedler-h4.regular-comodule-algebra")
        emit("sweedler-h4.coeff-eps-g")
        code = main(["check", "coefficient", "--flavor", "hcc",
                     "--hopf", "sweedler-h4.json",
                     "--carrier", "sweedler-h4.regular-comodule-algebra.json",
                     "--coeff", "sweedler-h4.coeff-eps-g.json",
                     "--max-degree", "2"])
        assert code == 0

    def test_hc_sayd_flavor(self, workdir):
        emit("sweedler-h4.adjoint-comodule-coalgebra")
        emit("sweedler-h4.coeff-eps-g")
        code = main(["check", "coefficient", "--flavor", "hc-sayd",
                     "--hopf", "sweedler-h4.json",
                     "--carrier", "sweedler-h4.adjoint-comodule-coalgebra.json",
                     "--coeff", "sweedler-h4.coeff-eps-g.json",
                     "--max-degree", "2"])
        assert code == 0

    def test_usage_error_exit_2(self, workdir):
        assert main(["check", "coefficient", "--flavor", "nonsense",
                     "--hopf", "x", "--coeff", "y"]) == 2
        assert main(["examples", "emit", "no-such-example"]) == 2
        assert main(["check", "hopf", "missing-file.json"]) == 2

    def test_complex_build_verify(self, workdir, capsys):
        emit("kZ2.regular-comodule-algebra")
        emit("kZ2.coeff-eps-unit")
        code = main(["complex", "build", "--kind", "comodule-algebra",
                     "--hopf", "kZ2.json",
                     "--carrier", "kZ2.regular-comodule-algebra.json",
                     "--coeff", "kZ2.coeff-eps-unit.json",
                     "--max-degree", "2", "--verify",
                     "--out", "complex.json"])
        assert code == 0
        data = json.loads((workdir / "complex.json").read_text())
        assert data["kind"] == "comodule-algebra"
        assert [d["dim"] for d in data["degrees"]] == [1, 2, 4]

    def test_complex_build_over_the_size_cap_exits_2(self, workdir, capsys):
        # degree 17 of the kZ2 translation algebra has 2^18 unknowns; the
        # cap trips there before degree 16 (2^17 unknowns) is solved
        emit("kZ2.translation-module-algebra")
        emit("kZ2.coeff-eps-unit")
        capsys.readouterr()
        code = main(["complex", "build", "--kind", "module-algebra",
                     "--hopf", "kZ2.json",
                     "--carrier", "kZ2.translation-module-algebra.json",
                     "--coeff", "kZ2.coeff-eps-unit.json",
                     "--max-degree", "17", "--out", "complex.json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: invariant functionals at degree 17 needs 262144 unknowns, "
                "above the configured cap 200000") in captured.err
        assert not (workdir / "complex.json").exists()

    def test_complex_build_to_a_missing_directory_exits_2(self, workdir, capsys):
        # a file that cannot be written is one error line, not a traceback
        emit("kZ2.regular-comodule-algebra")
        emit("kZ2.coeff-eps-unit")
        capsys.readouterr()
        out = os.path.join("no-such-directory", "complex.json")
        code = main(["complex", "build", "--kind", "comodule-algebra",
                     "--hopf", "kZ2.json",
                     "--carrier", "kZ2.regular-comodule-algebra.json",
                     "--coeff", "kZ2.coeff-eps-unit.json",
                     "--max-degree", "1", "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "No such file or directory" in captured.err and out in captured.err

    def test_examples_emit_into_a_file_exits_2(self, workdir, capsys):
        # --out names a directory; an existing file there is refused, untouched
        (workdir / "taken").write_text("kept\n")
        capsys.readouterr()
        assert main(["examples", "emit", "kZ2", "--out", "taken"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "File exists" in captured.err and "taken" in captured.err
        assert (workdir / "taken").read_text() == "kept\n"

    def test_cohomology_tables(self, workdir, capsys):
        emit("trivial.regular-comodule-algebra")
        emit("trivial.coeff-eps-unit")
        base = ["--hopf", "trivial.json",
                "--carrier", "trivial.regular-comodule-algebra.json",
                "--coeff", "trivial.coeff-eps-unit.json", "--max-degree", "3"]
        assert main(["cohomology", "--theory", "cyclic",
                     "--kind", "comodule-algebra"] + base) == 0
        out = capsys.readouterr().out
        assert "1       0       1       0" in out
        assert main(["cohomology", "--theory", "hochschild",
                     "--kind", "comodule-algebra"] + base) == 0
        out = capsys.readouterr().out
        assert "1       0       0       0" in out

    def test_modulus_too_large_to_decide_exits_2(self, workdir, capsys):
        emit("kZ2")
        with open("kZ2.json", encoding="utf-8") as fh:
            d = json.load(fh)
        d["field"] = "GF(3317044064679887385961981)"
        with open("kZ2.json", "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        capsys.readouterr()
        assert main(["check", "hopf", "kZ2.json"]) == 2
        assert "primality is decided only below" in capsys.readouterr().err

    def test_corpus_single_scenario(self, workdir, capsys):
        assert main(["corpus", "run", "stable-subalgebra"]) == 0
        out = capsys.readouterr().out
        assert "passed" in out

    def test_corpus_unknown_scenario(self, workdir):
        assert main(["corpus", "run", "no-such-scenario"]) == 2

    def test_examples_list(self, workdir, capsys):
        assert main(["examples", "list"]) == 0
        out = capsys.readouterr().out
        assert "sweedler-h4" in out and "bicrossed-s3-f2" in out

    def test_json_reports(self, workdir, capsys):
        emit("sweedler-h4")
        capsys.readouterr()  # drop the emit log
        assert main(["--json", "check", "hopf", "sweedler-h4.json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_determinism(self, workdir, capsys):
        emit("sweedler-h4.coeff-eps-unit")
        capsys.readouterr()
        args = ["check", "coefficient", "--flavor", "sayd",
                "--hopf", "sweedler-h4.json",
                "--coeff", "sweedler-h4.coeff-eps-unit.json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


CUP_ARGS = ["cup", "--hopf", "hopf.json", "--action-algebra", "action.json",
            "--comodule-algebra", "comodule.json", "--coeff", "coeff.json",
            "--phi", "phi.json", "--psi", "psi.json"]


def write_cup_files(A, B, M, hopf_name):
    """The hopf, action, comodule and coefficient files of A⋊B with M, and
    φ and ψ the first degree-0 basis cochains of its two sides."""
    from hopfcyc import structfile as sf
    from hopfcyc.cocyclic import invariant_functionals
    from hopfcyc.symmetries import colinear_hom_space

    hd = sf.hopf_to_dict(A.hopf, hopf_name)
    sf.write_file("hopf.json", hd)
    sf.write_file("action.json", sf.structure_to_dict("module-algebra", A, "A", hd))
    sf.write_file("comodule.json", sf.structure_to_dict("comodule-algebra", B, "B", hd))
    sf.write_file("coeff.json", sf.structure_to_dict("module-comodule", M, "M", hd))
    phis = invariant_functionals(A, M, 0)
    psis = colinear_hom_space(B, M, 0)
    sf.write_file("phi.json", sf.cochain_to_dict(
        phis.basis[0], "phi", 0, "module-algebra", phis.ambient.labels, {}))
    sf.write_file("psi.json", sf.cochain_to_dict(
        psis.basis[0], "psi", 0, "comodule-algebra", psis.ambient.labels, {}))


def write_trivial_cup_files():
    """The trivial-H crossed-product demo over ℚ, built by hand."""
    from hopfcyc.corpus import crossed_product_instances

    name, A, B, M = crossed_product_instances()[0]
    write_cup_files(A, B, M, "trivial")


def run_hcc(args):
    """The installed entry point, in its own process."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "hopfcyc.cli"] + args,
                          capture_output=True, text=True, env=env)


class TestCupCli:
    def test_cup_of_traces(self, workdir, capsys):
        write_trivial_cup_files()
        code = main(CUP_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "cup cochain" in out and "PASS" in out

    def test_module_side_escape_is_a_verdict(self, workdir):
        # the regular-coaction coefficient is carrier-SAYD over the trivial
        # comodule algebra of kS3, but the adjoint module-algebra complex is
        # not well-defined: exit 1 with the verdict and its witness
        from hopfcyc.symmetries import (adjoint_module_algebra,
                                        regular_coaction_trivial_action,
                                        trivial_comodule_algebra)

        H = get_hopf("kS3")
        write_cup_files(adjoint_module_algebra(H), trivial_comodule_algebra(H),
                        regular_coaction_trivial_action(H), "kS3")
        for json_flag in ([], ["--json"]):
            proc = run_hcc(json_flag + CUP_ARGS)
            assert proc.returncode == 1
            assert proc.stderr == ""
            assert "well-defined" in proc.stdout and "coface δ_1" in proc.stdout

    def test_cup_over_the_twist_cap_exits_2(self, workdir, capsys, monkeypatch):
        # the cap is lowered once the pairing's complexes are built, below
        # P_0's (2·2)^1 = 4 source columns on the trivial-H instance
        from hopfcyc import cli, symmetries

        init = cli.CrossedPairing.__init__

        def built_then_capped(self, *args, **kwargs):
            init(self, *args, **kwargs)
            monkeypatch.setattr(symmetries, "SIZE_CAP", 3)

        monkeypatch.setattr(cli.CrossedPairing, "__init__", built_then_capped)
        write_trivial_cup_files()
        capsys.readouterr()
        assert main(CUP_ARGS) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: pairing twist P_0 needs 4 unknowns, above the configured cap 3\n")

    @pytest.mark.parametrize("cochain", ["phi", "psi"])
    def test_cup_refuses_a_cochain_over_another_field(self, workdir, capsys, cochain):
        # "4" would read as 1 in GF(3): the coordinates must not be parsed
        # in a field other than the Hopf algebra's
        write_trivial_cup_files()
        path = "%s.json" % cochain
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        d["field"] = "GF(3)"
        d["coordinates"] = [[i, "4"] for i, _ in d["coordinates"]]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        capsys.readouterr()
        assert main(CUP_ARGS) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: field GF(3) does not match the Hopf file's Q\n"


# a file of another kind in each role of each command that loads carriers
# and coefficients: the kind it should have and the one it has
WRONG_KIND_CASES = {
    "check-ah-sayd-coalgebra-carrier": (
        ["check", "coefficient", "--flavor", "ah-sayd", "--hopf", "kZ2.json",
         "--carrier", "kZ2.adjoint-comodule-coalgebra.json", "--coeff", "kZ2.coeff-eps-unit.json"],
        "comodule-algebra", "comodule-coalgebra"),
    "check-hc-sayd-algebra-carrier": (
        ["check", "coefficient", "--flavor", "hc-sayd", "--hopf", "kZ2.json",
         "--carrier", "kZ2.regular-comodule-algebra.json", "--coeff", "kZ2.coeff-eps-unit.json"],
        "comodule-coalgebra", "comodule-algebra"),
    "check-sayd-carrier-as-coeff": (
        ["check", "coefficient", "--flavor", "sayd", "--hopf", "kZ2.json",
         "--coeff", "kZ2.regular-comodule-algebra.json"],
        "module-comodule", "comodule-algebra"),
    "complex-build-algebra-as-coalgebra": (
        ["complex", "build", "--kind", "comodule-coalgebra", "--hopf", "kZ2.json",
         "--carrier", "kZ2.regular-comodule-algebra.json", "--coeff", "kZ2.coeff-eps-unit.json"],
        "comodule-coalgebra", "comodule-algebra"),
    "complex-build-carrier-as-coeff": (
        ["complex", "build", "--kind", "comodule-algebra", "--hopf", "kZ2.json",
         "--carrier", "kZ2.regular-comodule-algebra.json",
         "--coeff", "kZ2.translation-module-algebra.json"],
        "module-comodule", "module-algebra"),
    "cohomology-module-algebra-as-comodule-algebra": (
        ["cohomology", "--theory", "cyclic", "--kind", "comodule-algebra", "--hopf", "kZ2.json",
         "--carrier", "kZ2.translation-module-algebra.json", "--coeff", "kZ2.coeff-eps-unit.json"],
        "comodule-algebra", "module-algebra"),
    "cup-comodule-algebra-as-action": (
        ["cup", "--hopf", "kZ2.json", "--action-algebra", "kZ2.regular-comodule-algebra.json",
         "--comodule-algebra", "kZ2.regular-comodule-algebra.json",
         "--coeff", "kZ2.coeff-eps-unit.json", "--phi", "phi.json", "--psi", "psi.json"],
        "module-algebra", "comodule-algebra"),
    "cup-module-algebra-as-comodule": (
        ["cup", "--hopf", "kZ2.json", "--action-algebra", "kZ2.translation-module-algebra.json",
         "--comodule-algebra", "kZ2.translation-module-algebra.json",
         "--coeff", "kZ2.coeff-eps-unit.json", "--phi", "phi.json", "--psi", "psi.json"],
        "comodule-algebra", "module-algebra"),
    "cup-carrier-as-coeff": (
        ["cup", "--hopf", "kZ2.json", "--action-algebra", "kZ2.translation-module-algebra.json",
         "--comodule-algebra", "kZ2.regular-comodule-algebra.json",
         "--coeff", "kZ2.regular-comodule-algebra.json", "--phi", "phi.json", "--psi", "psi.json"],
        "module-comodule", "comodule-algebra"),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND_CASES))
def test_file_of_the_wrong_kind_is_refused_by_kind(workdir, capsys, case):
    args, want, found = WRONG_KIND_CASES[case]
    for name in ("kZ2.coeff-eps-unit", "kZ2.regular-comodule-algebra",
                 "kZ2.adjoint-comodule-coalgebra", "kZ2.translation-module-algebra"):
        emit(name)
    capsys.readouterr()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected kind %r, found %r\n" % (want, found)


# one emitted example of each kind, the hcc invocation that reads it (FILE is
# the broken copy), and every key that kind of file must hold
MISSING_KEY_CASES = {
    "kZ2": ("hopf", ["check", "hopf", "FILE"]),
    "kZ2.coeff-eps-unit": ("module-comodule", [
        "check", "coefficient", "--flavor", "sayd", "--hopf", "kZ2.json", "--coeff", "FILE"]),
    "kZ2.regular-comodule-algebra": ("comodule-algebra", [
        "check", "coefficient", "--flavor", "ah-sayd", "--hopf", "kZ2.json",
        "--carrier", "FILE", "--coeff", "kZ2.coeff-eps-unit.json", "--max-degree", "1"]),
    "kZ2.adjoint-comodule-coalgebra": ("comodule-coalgebra", [
        "check", "coefficient", "--flavor", "hc-sayd", "--hopf", "kZ2.json",
        "--carrier", "FILE", "--coeff", "kZ2.coeff-eps-unit.json", "--max-degree", "1"]),
    "kZ2.translation-module-algebra": ("module-algebra", [
        "complex", "build", "--kind", "module-algebra", "--hopf", "kZ2.json",
        "--carrier", "FILE", "--coeff", "kZ2.coeff-eps-unit.json", "--max-degree", "1"]),
}
REQUIRED_KEYS = {
    "hopf": ["field", "dim", "basis", "tensors", "tensors.mult", "tensors.unit",
             "tensors.comult", "tensors.counit", "tensors.antipode"],
    "module-comodule": ["field", "dim", "basis", "tensors", "tensors.action",
                        "tensors.coaction"],
    "comodule-algebra": ["field", "dim", "basis", "tensors", "tensors.mult", "tensors.unit",
                         "tensors.coaction"],
    "comodule-coalgebra": ["field", "dim", "basis", "tensors", "tensors.comult",
                           "tensors.counit", "tensors.coaction"],
    "module-algebra": ["field", "dim", "basis", "tensors", "tensors.mult", "tensors.unit",
                       "tensors.action"],
}


def without_key(src, dst, key):
    """Copy structure file ``src`` to ``dst`` without ``key`` (a top-level
    key, or ``tensors.<name>``)."""
    with open(src, encoding="utf-8") as fh:
        d = json.load(fh)
    top, _, tensor = key.partition(".")
    del (d[top] if tensor else d)[tensor or top]
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(d, fh)


class TestMissingKeys:
    """A file without a key its kind needs exits 2 and names the file and the
    key; it never reaches a ``KeyError``."""

    @pytest.mark.parametrize("example", sorted(MISSING_KEY_CASES))
    def test_structure_file_without_a_required_key(self, workdir, capsys, example):
        kind, argv = MISSING_KEY_CASES[example]
        for name in ("kZ2.coeff-eps-unit", example):
            emit(name)
        assert structfile.load_file("%s.json" % example)["kind"] == kind
        for key in REQUIRED_KEYS[kind]:
            without_key("%s.json" % example, "broken.json", key)
            capsys.readouterr()
            assert main([a if a != "FILE" else "broken.json" for a in argv]) == 2, key
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: broken.json: missing key '%s'\n" % key

    def test_tensors_that_are_not_an_object_hold_no_tensor(self, workdir, capsys):
        emit("kZ2.coeff-eps-unit")
        d = structfile.load_file("kZ2.coeff-eps-unit.json")
        d["tensors"] = None
        structfile.write_file("broken.json", d)
        capsys.readouterr()
        argv = MISSING_KEY_CASES["kZ2.coeff-eps-unit"][1]
        assert main([a if a != "FILE" else "broken.json" for a in argv]) == 2
        assert capsys.readouterr().err == "error: broken.json: missing key 'tensors.action'\n"

    @pytest.mark.parametrize("cochain", ["phi", "psi"])
    @pytest.mark.parametrize("key", ["field", "degree", "coordinates"])
    def test_cochain_file_without_a_required_key(self, workdir, capsys, cochain, key):
        write_trivial_cup_files()
        without_key("%s.json" % cochain, "%s.json" % cochain, key)
        capsys.readouterr()
        assert main(CUP_ARGS) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s.json: missing key '%s'\n" % (cochain, key)

    def test_cup_refuses_a_file_that_is_not_a_cochain(self, workdir, capsys):
        write_trivial_cup_files()
        capsys.readouterr()
        assert main(CUP_ARGS[:-1] + ["coeff.json"]) == 2
        assert capsys.readouterr().err == (
            "error: expected kind 'cochain', found 'module-comodule'\n")

    def test_hcc_prints_no_traceback(self, workdir):
        """The installed entry point, in its own process: exit 2, one line."""
        emit("kZ2.coeff-eps-unit")
        without_key("kZ2.coeff-eps-unit.json", "broken.json", "basis")
        proc = run_hcc(["check", "coefficient", "--flavor", "sayd",
                        "--hopf", "kZ2.json", "--coeff", "broken.json"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: broken.json: missing key 'basis'\n"


def with_value(src, dst, key, value):
    """Copy structure file ``src`` to ``dst`` with ``key`` (a top-level key,
    or ``tensors.<name>``) set to ``value``."""
    with open(src, encoding="utf-8") as fh:
        d = json.load(fh)
    top, _, tensor = key.partition(".")
    (d[top] if tensor else d)[tensor or top] = value
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(d, fh)


# a value of the wrong type for each typed key, and how the message shows it
WRONG_TYPES = [
    ("field", 5, "5", "a string"),
    ("dim", "1", '"1"', "an integer"),
    ("dim", 1.0, "1.0", "an integer"),
    ("dim", None, "null", "an integer"),
    ("basis", 5, "5", "a list of strings"),
    ("basis", "ab", '"ab"', "a list of strings"),
    ("basis", [0, 1], "[0, 1]", "a list of strings"),
]


class TestWrongTypes:
    """A file whose field, dim, basis or degree has the wrong type, or whose tensor
    entries are not lists, exits 2 with one line that names the file and the
    key; it never reaches a ``TypeError``.  A float scalar (JSON reads a number
    with a fraction as the nearest float) or a boolean index or scalar exits 2
    with one line that names the tensor."""

    @pytest.mark.parametrize("example", sorted(MISSING_KEY_CASES))
    def test_structure_file_with_a_wrong_type(self, workdir, capsys, example):
        kind, argv = MISSING_KEY_CASES[example]
        for name in ("kZ2.coeff-eps-unit", example):
            emit(name)
        for key, value, shown, want in WRONG_TYPES:
            with_value("%s.json" % example, "broken.json", key, value)
            capsys.readouterr()
            assert main([a if a != "FILE" else "broken.json" for a in argv]) == 2, (key, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: broken.json: '%s' must be %s, found %s\n" % (
                key, want, shown)

    @pytest.mark.parametrize("example", sorted(MISSING_KEY_CASES))
    def test_tensor_entries_that_are_not_lists(self, workdir, capsys, example):
        kind, argv = MISSING_KEY_CASES[example]
        for name in ("kZ2.coeff-eps-unit", example):
            emit(name)
        tensor = REQUIRED_KEYS[kind][-1].partition(".")[2]
        for value, message in [(5, "entries must be a list, found 5"),
                               ({"0": 1}, 'entries must be a list, found {"0": 1}'),
                               ([7], "malformed entry 7"),
                               (["0,0,1"], "malformed entry '0,0,1'"),
                               ([[0, 0, 1.5]], "scalar must be a string or an integer, "
                                               "found 1.5 in [0, 0, 1.5]"),
                               ([[0, 0, True]], "scalar must be a string or an integer, "
                                                "found true in [0, 0, True]"),
                               ([[False, 0, "1"]], "non-integer index in [False, 0, '1']"),
                               ([[0, True, "1"]], "non-integer index in [0, True, '1']")]:
            with_value("%s.json" % example, "broken.json", "tensors." + tensor, value)
            capsys.readouterr()
            assert main([a if a != "FILE" else "broken.json" for a in argv]) == 2, value
            assert capsys.readouterr().err == "error: %s: %s\n" % (tensor, message)

    @pytest.mark.parametrize("cochain", ["phi", "psi"])
    def test_cochain_with_a_wrong_type(self, workdir, capsys, cochain):
        for key, value, message in [
                ("degree", "0", "'degree' must be a non-negative integer, found \"0\""),
                ("degree", -1, "'degree' must be a non-negative integer, found -1"),
                ("degree", True, "'degree' must be a non-negative integer, found true"),
                ("field", None, "'field' must be a string, found null")]:
            write_trivial_cup_files()
            with_value("%s.json" % cochain, "%s.json" % cochain, key, value)
            capsys.readouterr()
            assert main(CUP_ARGS) == 2, value
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: %s.json: %s\n" % (cochain, message)
        for coordinates, message in [
                ([["0", "1"]], "non-integer index in ['0', '1']"),
                ([[False, "1"]], "non-integer index in [False, '1']"),
                ([[True, "1"]], "non-integer index in [True, '1']"),
                ([[0, 1.5]], "scalar must be a string or an integer, found 1.5 in [0, 1.5]"),
                ([[0, True]], "scalar must be a string or an integer, found true in [0, True]")]:
            write_trivial_cup_files()
            with_value("%s.json" % cochain, "%s.json" % cochain, "coordinates", coordinates)
            capsys.readouterr()
            assert main(CUP_ARGS) == 2, coordinates
            assert capsys.readouterr().err == "error: %s: %s\n" % (cochain, message)

    def test_hcc_prints_no_traceback(self, workdir):
        """The installed entry point, in its own process: exit 2, one line."""
        emit("kZ2")
        with_value("kZ2.json", "broken.json", "dim", "2")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-m", "hopfcyc.cli", "check", "hopf", "broken.json"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: broken.json: 'dim' must be an integer, found \"2\"\n"


class TestRightComoduleAlgebra:
    """A right comodule-algebra carrier is refused where its file is loaded,
    after it parses and passes its axioms: exit 2 and one error line for
    every command that reads one, where the checks, complexes and crossed
    products used to stop with a traceback."""

    FILES = ["--hopf", "bicrossed-s3-f3.json",
             "--carrier", "bicrossed-s3-f3.function-comodule-algebra.json",
             "--coeff", "bicrossed-s3-f3.coeff-eps-unit.json"]
    MESSAGE = ("error: bicrossed-s3-f3.function-comodule-algebra.json: a comodule-algebra "
               "carrier must be a left comodule algebra, found side 'right'\n")

    @pytest.fixture()
    def files(self, workdir):
        from hopfcyc.symmetries import trivial_module_algebra

        emit("bicrossed-s3-f3.function-comodule-algebra")
        emit("bicrossed-s3-f3.coeff-eps-unit")
        hd = structfile.load_file("bicrossed-s3-f3.json")
        H = structfile.hopf_from_dict(hd)
        structfile.write_file("action.json", structfile.structure_to_dict(
            "module-algebra", trivial_module_algebra(H), "A", hd))

    @pytest.mark.parametrize("command", [
        ["check", "coefficient", "--flavor", "ah-sayd"] + FILES,
        ["check", "coefficient", "--flavor", "hcc"] + FILES,
        ["complex", "build", "--kind", "comodule-algebra"] + FILES,
        ["cohomology", "--theory", "cyclic", "--kind", "comodule-algebra"] + FILES,
        ["cup", "--hopf", "bicrossed-s3-f3.json", "--action-algebra", "action.json",
         "--comodule-algebra", "bicrossed-s3-f3.function-comodule-algebra.json",
         "--coeff", "bicrossed-s3-f3.coeff-eps-unit.json", "--phi", "phi.json", "--psi", "psi.json"],
    ], ids=["ah-sayd", "hcc", "complex", "cohomology", "cup"])
    def test_right_carrier_exits_2(self, files, capsys, command):
        capsys.readouterr()
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.MESSAGE

    def test_hcc_prints_no_traceback(self, files):
        """The installed entry point, in its own process: exit 2, one line."""
        proc = run_hcc(["complex", "build", "--kind", "comodule-algebra"] + self.FILES)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == self.MESSAGE


class TestHccCarrierKind:
    """``--flavor hcc`` reads the carrier file's kind before it parses the
    file: a file of any other kind exits 2 with the hcc-carrier line, where a
    cochain used to stop at its Hopf content hash."""

    @pytest.mark.parametrize("carrier", ["phi.json", "hopf.json", "coeff.json"],
                             ids=["cochain", "hopf", "coefficient"])
    def test_wrong_kind_carrier_exits_2(self, workdir, capsys, carrier):
        write_trivial_cup_files()
        capsys.readouterr()
        assert main(["check", "coefficient", "--flavor", "hcc", "--hopf", "hopf.json",
                     "--carrier", carrier, "--coeff", "coeff.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: hcc needs a comodule-algebra or "
                                "comodule-coalgebra carrier\n")


class TestNegativeDegree:
    """A negative --max-degree is refused before any file is read: exit 2 and
    argparse's one-line message, where it used to pass vacuously (a PASS
    verdict, an empty complex verified, an empty table)."""

    FILES = ["--hopf", "kZ2.json", "--carrier", "kZ2.regular-comodule-algebra.json",
             "--coeff", "kZ2.coeff-eps-unit.json", "--max-degree", "-1"]

    @pytest.mark.parametrize("command", [
        ["check", "coefficient", "--flavor", "ah-sayd"],
        ["complex", "build", "--kind", "comodule-algebra", "--verify"],
        ["cohomology", "--theory", "cyclic", "--kind", "comodule-algebra"],
    ], ids=["check", "complex", "cohomology"])
    def test_negative_max_degree_exits_2(self, workdir, capsys, command):
        emit("kZ2.regular-comodule-algebra")
        emit("kZ2.coeff-eps-unit")
        capsys.readouterr()
        assert main(command + self.FILES) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.endswith(
            ": error: argument --max-degree: must be 0 or more, got -1\n")
