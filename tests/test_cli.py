import pytest

from stabset.cli import main
from stabset.fileformats import (
    ParseError,
    parse_set,
    parse_witness,
    serialize_set,
    serialize_witness,
    write_set,
    write_witness,
)
from stabset.constructions import ap_witness, dyadic_construction
from stabset.gf2 import BitVector
from stabset.orderprop import FiniteSet, Witness, ambient_f2


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


class TestFileFormats:
    def test_set_roundtrip_f2(self):
        A = FiniteSet.f2(4, [bv("0010"), bv("1100"), bv("0001")])
        text = serialize_set(A)
        assert parse_set(text) == A
        assert serialize_set(parse_set(text)) == text

    def test_set_roundtrip_z(self):
        A = FiniteSet.z([-5, 0, 17])
        text = serialize_set(A)
        assert text.splitlines()[1] == "group z"
        assert parse_set(text) == A
        assert serialize_set(parse_set(text)) == text

    def test_duplicate_elements_rejected(self):
        text = "stabset v1\ngroup f2 n=2\n01\n01\n"
        with pytest.raises(ParseError):
            parse_set(text)

    def test_wrong_magic_rejected(self):
        with pytest.raises(ParseError):
            parse_set("stabsets v2\ngroup z\n")

    def test_wrong_width_rejected(self):
        with pytest.raises(ParseError):
            parse_set("stabset v1\ngroup f2 n=3\n01\n")

    @pytest.mark.parametrize("token", ["0_1", "+01"])
    def test_non_bitstring_rejected(self, token):
        # int(token, 2) accepts both, so the bitstring check is the only gate
        with pytest.raises(ParseError):
            parse_set(f"stabset v1\ngroup f2 n=3\n{token}\n")

    def test_witness_roundtrip(self):
        w = Witness(ambient_f2(3), (bv("000"), bv("110")), (bv("001"), bv("100")))
        text = serialize_witness(w)
        assert parse_witness(text) == w
        assert serialize_witness(parse_witness(text)) == text

    def test_witness_roundtrip_z(self):
        w = ap_witness(0, 1, 4).witness
        text = serialize_witness(w)
        assert parse_witness(text) == w

    def test_truncated_witness_rejected(self):
        w = ap_witness(0, 1, 3).witness
        lines = serialize_witness(w).splitlines()
        with pytest.raises(ParseError):
            parse_witness("\n".join(lines[:-1]) + "\n")

    def test_role_order_enforced(self):
        text = "stabwit v1\ngroup z\nk=1\nt 1\ns 0\n"
        with pytest.raises(ParseError):
            parse_witness(text)

    def test_empty_witness(self):
        w = Witness(ambient_f2(2), (), ())
        assert parse_witness(serialize_witness(w)) == w


@pytest.fixture
def ap_files(tmp_path):
    inst = ap_witness(0, 1, 3)
    set_path = tmp_path / "ap.set"
    wit_path = tmp_path / "ap.wit"
    write_set(set_path, inst.A)
    write_witness(wit_path, inst.witness)
    return inst, str(set_path), str(wit_path)


class TestVerifyCommand:
    def test_valid_exit_zero(self, ap_files, capsys):
        _, set_path, wit_path = ap_files
        assert main(["verify", set_path, wit_path]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_corrupted_witness_exit_one(self, ap_files, tmp_path, capsys):
        inst, set_path, _ = ap_files
        bad = inst.witness.permute([0, 1, 2], [1, 0, 2])
        bad_path = tmp_path / "bad.wit"
        write_witness(bad_path, bad)
        assert main(["verify", set_path, str(bad_path)]) == 1
        out = capsys.readouterr().out
        assert "expected-" in out and "(" in out

    def test_truncated_file_exit_two(self, ap_files, tmp_path, capsys):
        _, set_path, wit_path = ap_files
        content = open(wit_path).read().splitlines()
        trunc = tmp_path / "trunc.wit"
        trunc.write_text("\n".join(content[:-1]) + "\n")
        assert main(["verify", set_path, str(trunc)]) == 2

    def test_missing_file_exit_two(self, ap_files):
        _, set_path, _ = ap_files
        assert main(["verify", set_path, "/nonexistent/w.wit"]) == 2


class TestMaxOrderCommand:
    def test_dyadic1(self, tmp_path, capsys):
        inst = dyadic_construction(1)
        set_path = tmp_path / "d1.set"
        write_set(set_path, inst.A)
        wit_out = tmp_path / "d1.maxwit"
        assert main(["max-order", str(set_path), "--witness-out", str(wit_out)]) == 0
        out = capsys.readouterr().out
        assert "kmax=4" in out and "status=exact" in out
        assert main(["verify", str(set_path), str(wit_out)]) == 0

    def test_empty_set(self, tmp_path, capsys):
        set_path = tmp_path / "empty.set"
        write_set(set_path, FiniteSet.f2(3, []))
        assert main(["max-order", str(set_path)]) == 0
        assert "kmax=0" in capsys.readouterr().out

    def test_full_cube(self, tmp_path, capsys):
        set_path = tmp_path / "full.set"
        write_set(set_path, FiniteSet.f2(3, [BitVector(3, b) for b in range(8)]))
        assert main(["max-order", str(set_path)]) == 0
        assert "kmax=1" in capsys.readouterr().out

    def test_z_set_rejected(self, ap_files, capsys):
        _, set_path, _ = ap_files
        assert main(["max-order", set_path]) == 2
        assert "F2" in capsys.readouterr().err

    def test_cnf_dump(self, tmp_path):
        import dpll

        inst = dyadic_construction(1)
        set_path = tmp_path / "d1.set"
        write_set(set_path, inst.A)
        cnf_path = tmp_path / "d1.cnf"
        assert main(["max-order", str(set_path), "--cnf-out", str(cnf_path)]) == 0
        assert dpll.satisfiable(cnf_path.read_text())
        assert (
            main(
                [
                    "max-order",
                    str(set_path),
                    "--cnf-out",
                    str(cnf_path),
                    "--cnf-k",
                    "5",
                ]
            )
            == 0
        )
        assert not dpll.satisfiable(cnf_path.read_text())


    def test_cnf_above_cap_refused(self, tmp_path, capsys):
        # dyadic l=2 at k=10 (the order the solver finds within 20000 nodes)
        # would take about 51.8M clauses
        inst = dyadic_construction(2)
        set_path = tmp_path / "d2.set"
        write_set(set_path, inst.A)
        cnf_path = tmp_path / "d2.cnf"
        argv = ["max-order", str(set_path), "--node-limit", "1", "--cnf-out", str(cnf_path), "--cnf-k", "10"]
        assert main(argv) == 2
        assert "51841716 clauses" in capsys.readouterr().err
        assert not cnf_path.exists()


class TestConstructCommand:
    def test_ap_then_verify(self, tmp_path):
        sp, wp = str(tmp_path / "a.set"), str(tmp_path / "a.wit")
        assert main(
            ["construct", "ap", "--start", "0", "--diff", "1", "--length", "5",
             "--set-out", sp, "--witness-out", wp]
        ) == 0
        assert main(["verify", sp, wp]) == 0

    def test_dyadic_then_verify(self, tmp_path, capsys):
        sp, wp = str(tmp_path / "d.set"), str(tmp_path / "d.wit")
        assert main(
            ["construct", "dyadic", "--l", "1", "--set-out", sp, "--witness-out", wp]
        ) == 0
        out = capsys.readouterr().out
        assert "size=8" in out and "k=4" in out
        assert main(["verify", sp, wp]) == 0

    def test_dyadic_padded(self, tmp_path, capsys):
        sp, wp = str(tmp_path / "dp.set"), str(tmp_path / "dp.wit")
        assert main(
            ["construct", "dyadic", "--l", "1", "--pad-to", "10",
             "--set-out", sp, "--witness-out", wp]
        ) == 0
        out = capsys.readouterr().out
        assert "size=10" in out and "k=4" in out
        assert main(["verify", sp, wp]) == 0

    def test_zero_diff_rejected(self, tmp_path):
        sp, wp = str(tmp_path / "z.set"), str(tmp_path / "z.wit")
        assert main(
            ["construct", "ap", "--start", "5", "--diff", "0", "--length", "3",
             "--set-out", sp, "--witness-out", wp]
        ) == 2


class TestCompressCommand:
    def test_pipeline_output_verifies(self, tmp_path):
        sp, wp = str(tmp_path / "d2.set"), str(tmp_path / "d2.wit")
        main(["construct", "dyadic", "--l", "2", "--set-out", sp, "--witness-out", wp])
        cs, cw = str(tmp_path / "c.set"), str(tmp_path / "c.wit")
        assert main(
            ["compress", sp, wp, "--l", "6", "--set-out", cs, "--witness-out", cw]
        ) == 0
        assert main(["verify", cs, cw]) == 0

    def test_trim_too_large_rejected(self, tmp_path, capsys):
        sp, wp = str(tmp_path / "d1.set"), str(tmp_path / "d1.wit")
        main(["construct", "dyadic", "--l", "1", "--set-out", sp, "--witness-out", wp])
        cs, cw = str(tmp_path / "c.set"), str(tmp_path / "c.wit")
        assert main(
            ["compress", sp, wp, "--l", "2", "--set-out", cs, "--witness-out", cw]
        ) == 2


class TestCertificateCommand:
    def test_compressed_instance_row(self, tmp_path, capsys):
        sp, wp = str(tmp_path / "d2.set"), str(tmp_path / "d2.wit")
        main(["construct", "dyadic", "--l", "2", "--set-out", sp, "--witness-out", wp])
        cs, cw = str(tmp_path / "c.set"), str(tmp_path / "c.wit")
        main(["compress", sp, wp, "--l", "6", "--set-out", cs, "--witness-out", cw])
        csv_path = tmp_path / "cert.csv"
        assert main(["certificate", cs, cw, "--csv-out", str(csv_path)]) == 0
        header, row = csv_path.read_text().splitlines()
        assert header == "n,d,p,dimV,support,I,rank,upper,k"
        fields = row.split(",")
        assert int(fields[5]) <= int(fields[6]) <= int(fields[7])

    def test_half_rejected(self, tmp_path, capsys):
        inst = dyadic_construction(1)
        sp, wp = tmp_path / "d.set", tmp_path / "d.wit"
        write_set(sp, inst.A)
        write_witness(wp, inst.witness)
        assert main(["certificate", str(sp), str(wp), "--p", "1/2"]) == 2

    def test_order_one_instance(self, tmp_path, capsys):
        A = FiniteSet.f2(2, [bv("00"), bv("01")])
        w = Witness(ambient_f2(2), (bv("00"),), (bv("00"),))
        sp, wp = tmp_path / "one.set", tmp_path / "one.wit"
        write_set(sp, A)
        write_witness(wp, w)
        assert main(["certificate", str(sp), str(wp), "--p", "1"]) == 0
        assert "witness matrix rank: 1" in capsys.readouterr().out


class TestExperimentCommand:
    def test_random_sweep_rows_and_cap(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(
            ["experiment", "--generator", "random", "--n", "4",
             "--size-min", "4", "--size-max", "8", "--seeds", "4",
             "--seed", "0", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "instance-id,N,n,kmax,status,runtime"
        assert len(lines) == 1 + 5 * 4
        for line in lines[1:]:
            fields = line.split(",")
            assert int(fields[3]) <= int(fields[1])  # kmax <= N

    def test_deterministic_up_to_runtime(self, tmp_path):
        args = ["experiment", "--generator", "random", "--n", "3",
                "--size-min", "2", "--size-max", "5", "--seeds", "3",
                "--seed", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        strip = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
        assert strip(out1) == strip(out2)

    def test_dyadic_sweep_reports_construction_order(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(
            ["experiment", "--generator", "dyadic", "--l-min", "1", "--l-max", "2",
             "--node-limit", "20000", "--out", str(out)]
        ) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert int(rows[0][3]) == 4 and rows[0][4] == "exact"
        assert int(rows[1][3]) == 24

    def test_empty_range_gives_header_only(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(
            ["experiment", "--generator", "random", "--n", "4",
             "--size-min", "3", "--size-max", "2", "--out", str(out)]
        ) == 0
        assert out.read_text() == "instance-id,N,n,kmax,status,runtime\n"

    def test_unknown_generator_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--generator", "nope", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2
