import importlib
import json
import os
import re
import stat
import threading

import pytest

from netportrait.cli import main

P3_TEXT = "a b\nb c\n"
K3_TEXT = "x y\ny z\nz x\n"
D_JS_P3_K3 = 0.3060986113514965


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text(P3_TEXT)
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(K3_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompare:
    def test_self_is_zero(self, capsys, p3_file):
        code, out, _ = run(capsys, ["compare", p3_file, p3_file])
        assert code == 0
        assert json.loads(out)["d_js"] == 0.0

    def test_p3_vs_k3_json(self, capsys, p3_file, k3_file):
        code, out, _ = run(capsys, ["compare", p3_file, k3_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["d_js"] == pytest.approx(D_JS_P3_K3, abs=1e-6)
        assert (payload["n1"], payload["m1"]) == (3, 2)
        assert (payload["n2"], payload["m2"]) == (3, 3)
        assert payload["bins"] is None

    def test_plain_format_prints_single_value(self, capsys, p3_file, k3_file):
        code, out, _ = run(capsys, ["compare", p3_file, k3_file, "--format", "csv"])
        assert code == 0
        assert float(out.strip()) == pytest.approx(D_JS_P3_K3, abs=1e-12)
        # at least 12 significant digits survive the formatting
        digits = re.sub(r"[^0-9]", "", out.strip().lstrip("0."))
        assert len(digits) >= 12

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        paths = [tmp_path / name for name in ("plain.edges", "bom.edges", "bom_comment.edges")]
        paths[0].write_bytes(b"a b\nb c\nc a\n")
        paths[1].write_bytes(b"\xef\xbb\xbfa b\nb c\nc a\n")
        paths[2].write_bytes(b"\xef\xbb\xbf# triangle\na b\nb c\nc a\n")
        for path in paths:
            code, out, err = run(capsys, ["compare", str(paths[0]), str(path),
                                          "--format", "csv"])
            assert (code, out, err) == (0, "0.0\n", "")
        dumps = [run(capsys, ["portrait", str(path)]) for path in paths]
        assert dumps[0][0] == 0 and dumps[1:] == dumps[:1] * 2

    def test_legacy_flag(self, capsys, p3_file, k3_file):
        code, out, _ = run(capsys, ["compare", p3_file, k3_file, "--legacy"])
        payload = json.loads(out)
        assert payload["legacy_delta"] == pytest.approx(8 / 21, abs=1e-12)
        code, out, _ = run(capsys,
                           ["compare", p3_file, k3_file, "--legacy", "--format", "csv"])
        lines = out.strip().splitlines()
        assert float(lines[1]) == pytest.approx(8 / 21, abs=1e-12)

    def test_legacy_builds_each_portrait_once(self, capsys, p3_file, k3_file, monkeypatch):
        # the package's ``portrait`` attribute is the function, not the module
        module = importlib.import_module("netportrait.portrait")
        levels = module._hop_levels
        swept = []

        def counting(indptr, indices, sources):
            swept.extend(sources.tolist())
            return levels(indptr, indices, sources)

        monkeypatch.setattr(module, "_hop_levels", counting)
        for fmt in ("json", "csv"):
            swept.clear()
            code, _, _ = run(capsys, ["compare", p3_file, k3_file, "--legacy", "--format", fmt])
            assert code == 0
            assert len(swept) == 2 * 3  # each source of each 3-node graph swept once

    def test_weighted_compare(self, capsys, tmp_path):
        f1 = tmp_path / "w1.edges"
        f1.write_text("a b 1\nb c 2\n")
        f2 = tmp_path / "w2.edges"
        f2.write_text("a b 1\nb c 1\nc a 1\n")
        code, out, _ = run(capsys, ["compare", str(f1), str(f2), "--weighted",
                                    "--bins", "3", "--transform", "identity"])
        assert code == 0
        payload = json.loads(out)
        assert payload["bins"] == [1.0, 2.0, 3.0, 3.0]
        assert 0.0 <= payload["d_js"] <= 1.0

    def test_weighted_flag_mismatch_is_usage_error(self, capsys, tmp_path, p3_file):
        weighted = tmp_path / "w.edges"
        weighted.write_text("a b 1.5\n")
        code, _, err = run(capsys, ["compare", p3_file, str(weighted), "--weighted"])
        assert code == 1
        assert "line 1" in err

    def test_three_columns_without_weighted_is_usage_error(self, capsys, tmp_path, p3_file):
        weighted = tmp_path / "w.edges"
        weighted.write_text("a b 1.5\n")
        code, _, _ = run(capsys, ["compare", p3_file, str(weighted)])
        assert code == 1

    def test_malformed_file_is_parse_error(self, capsys, tmp_path, p3_file):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b\nnonsense_token\n")
        code, _, err = run(capsys, ["compare", p3_file, str(bad)])
        assert code == 2
        assert f"{bad}: line 2" in err
        code, _, err = run(capsys, ["matrix", p3_file, str(bad), p3_file])
        assert code == 2
        assert f"{bad}: line 2" in err

    def test_nonpositive_weight_is_parse_error(self, capsys, tmp_path):
        f1 = tmp_path / "w1.edges"
        f1.write_text("a b 1\n")
        f2 = tmp_path / "w2.edges"
        f2.write_text("a b -1\n")
        code, _, _ = run(capsys, ["compare", str(f1), str(f2), "--weighted"])
        assert code == 2

    def test_missing_file_is_input_error(self, capsys, p3_file):
        code, _, _ = run(capsys, ["compare", p3_file, "/no/such/file"])
        assert code == 2

    def test_weighted_options_require_weighted_flag(self, capsys, p3_file, k3_file):
        code, _, err = run(capsys, ["compare", p3_file, k3_file, "--bins", "5"])
        assert code == 1 and "--weighted" in err

    def test_unknown_flag_is_usage_error(self, capsys, p3_file):
        code, _, _ = run(capsys, ["compare", p3_file, p3_file, "--frobnicate"])
        assert code == 1

    def test_directed_compare(self, capsys, tmp_path):
        f1 = tmp_path / "d1.edges"
        f1.write_text("a b\nb c\n")
        f2 = tmp_path / "d2.edges"
        f2.write_text("b a\nc b\n")  # same digraph up to relabeling
        code, out, _ = run(capsys, ["compare", str(f1), str(f2), "--directed"])
        assert code == 0
        assert json.loads(out)["d_js"] == 0.0

    def test_weighted_compare_default_bins(self, capsys, tmp_path):
        f1 = tmp_path / "w1.edges"
        f1.write_text("a b 1\nb c 2\nc d 0.5\n")
        f2 = tmp_path / "w2.edges"
        f2.write_text("a b 2\nb c 2\n")
        code, out, _ = run(capsys, ["compare", str(f1), str(f2), "--weighted"])
        assert code == 0
        assert 0.0 <= json.loads(out)["d_js"] <= 1.0


class TestMatrix:
    def test_three_copies_zero_matrix(self, capsys, tmp_path):
        paths = []
        for i in range(3):
            f = tmp_path / f"copy{i}.edges"
            f.write_text(P3_TEXT)
            paths.append(str(f))
        code, out, _ = run(capsys, ["matrix", *paths])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "copy0.edges,copy1.edges,copy2.edges"
        values = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert values == [[0.0] * 3] * 3

    def test_p3_k3_matrix(self, capsys, p3_file, k3_file):
        code, out, _ = run(capsys, ["matrix", p3_file, k3_file])
        lines = out.strip().splitlines()
        values = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert values[0][1] == pytest.approx(D_JS_P3_K3, abs=1e-12)
        assert values[0][1] == values[1][0]
        assert values[0][0] == values[1][1] == 0.0

    def test_symmetry_and_zero_diagonal(self, capsys, tmp_path):
        import netportrait as npor
        paths = []
        for i, g in enumerate([npor.erdos_renyi(20, 0.2, s) for s in (1, 2, 3, 4)]):
            f = tmp_path / f"g{i}.edges"
            f.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
            paths.append(str(f))
        code, out, _ = run(capsys, ["matrix", *paths])
        lines = out.strip().splitlines()
        values = [[float(x) for x in line.split(",")] for line in lines[1:]]
        for i in range(4):
            assert values[i][i] == 0.0
            for j in range(4):
                assert abs(values[i][j] - values[j][i]) <= 1e-12

    def test_json_format(self, capsys, p3_file, k3_file):
        code, out, _ = run(capsys, ["matrix", p3_file, k3_file, "--format", "json"])
        payload = json.loads(out)
        assert payload["files"] == ["p3.edges", "k3.edges"]
        assert payload["d_js"][0][1] == pytest.approx(D_JS_P3_K3, abs=1e-12)

    def test_weighted_matrix_per_pair_bins(self, capsys, tmp_path):
        texts = ["a b 1\nb c 2\n", "a b 1\nb c 1\nc a 1\n", "a b 3\n"]
        paths = []
        for i, t in enumerate(texts):
            f = tmp_path / f"w{i}.edges"
            f.write_text(t)
            paths.append(str(f))
        code, out, _ = run(capsys, ["matrix", *paths, "--weighted", "--bins", "4",
                                    "--transform", "identity"])
        assert code == 0
        lines = out.strip().splitlines()
        values = [[float(x) for x in line.split(",")] for line in lines[1:]]
        for i in range(3):
            for j in range(3):
                assert abs(values[i][j] - values[j][i]) <= 1e-12

    def test_weighted_matrix_sweeps_each_graph_once(self, capsys, tmp_path, monkeypatch):
        import netportrait.graph
        sweep = netportrait.graph._sweep
        swept = []

        def counting(g, sources, transform):
            swept.extend(sources.tolist())
            return sweep(g, sources, transform)

        monkeypatch.setattr(netportrait.graph, "_sweep", counting)
        texts = ["a b 1\nb c 2\nc d 3\n", "a b 1\nb c 1\nc a 1\nd a 2\n",
                 "a b 3\nc d 1\n"]
        paths = []
        for i, t in enumerate(texts):
            f = tmp_path / f"w{i}.edges"
            f.write_text(t)
            paths.append(str(f))
        code, _, _ = run(capsys, ["matrix", *paths, "--weighted", "--bins", "4"])
        assert code == 0
        assert len(swept) == 3 * 4  # each source of each 4-node graph swept once

    def test_two_copies_print_exact_zero(self, capsys, tmp_path):
        import netportrait as npor
        text = "".join(f"{u} {v}\n" for u, v in npor.erdos_renyi(30, 0.15, 9).edges)
        paths = []
        for name in ("a.edges", "b.edges"):
            (tmp_path / name).write_text(text)
            paths.append(str(tmp_path / name))
        code, out, _ = run(capsys, ["matrix", *paths])
        assert code == 0
        assert out == "a.edges,b.edges\n0.0,0.0\n0.0,0.0\n"

    def test_hop_matrix_runs_the_kernel_once_per_row(self, capsys, tmp_path, monkeypatch):
        import netportrait.cli
        import netportrait.divergence as div
        calls = {"jsd_bits": 0, "_jsd_rows": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(div, "_jsd_rows", counting("_jsd_rows", div._jsd_rows))
        monkeypatch.setattr(div, "jsd_bits", counting("jsd_bits", div.jsd_bits))
        # the counted jsd_bits also stands in for any name cli imported
        monkeypatch.setattr(netportrait.cli, "jsd_bits", div.jsd_bits, raising=False)
        texts = [P3_TEXT, K3_TEXT, "a b\nc d\n", "a b\nb c\nc d\n", "a b\n"]
        paths = []
        for i, t in enumerate(texts):
            f = tmp_path / f"g{i}.edges"
            f.write_text(t)
            paths.append(str(f))
        code, _, _ = run(capsys, ["matrix", *paths])
        assert code == 0
        assert calls == {"jsd_bits": 0, "_jsd_rows": len(texts) - 1}

    def test_single_file_is_usage_error(self, capsys, p3_file):
        code, _, _ = run(capsys, ["matrix", p3_file])
        assert code == 1

    def test_aborts_on_any_parse_failure(self, capsys, tmp_path, p3_file):
        bad = tmp_path / "bad.edges"
        bad.write_text("one_field\n")
        code, out, _ = run(capsys, ["matrix", p3_file, str(bad), p3_file])
        assert code == 2
        assert out == ""


class TestPortraitCommand:
    def test_json(self, capsys, p3_file):
        code, out, _ = run(capsys, ["portrait", p3_file])
        payload = json.loads(out)
        assert payload["n_nodes"] == 3
        assert payload["rows"] == [[[1, 3]], [[1, 2], [2, 1]], [[0, 1], [1, 2]]]

    def test_csv(self, capsys, p3_file):
        code, out, _ = run(capsys, ["portrait", p3_file, "--format", "csv"])
        assert out == "0,3,0\n0,2,1\n1,2,0\n"

    def test_weighted_needs_explicit_bins(self, capsys, tmp_path):
        f = tmp_path / "w.edges"
        f.write_text("a b 1\nb c 2\n")
        code, _, err = run(capsys, ["portrait", str(f), "--weighted"])
        assert code == 1 and "--bins" in err
        code, out, _ = run(capsys, ["portrait", str(f), "--weighted", "--bins", "3",
                                    "--transform", "identity"])
        assert code == 0
        assert json.loads(out)["bin_edges"] == [1.0, 2.0, 3.0, 3.0]

    def test_directed_marked_in_json(self, capsys, tmp_path):
        f = tmp_path / "d.edges"
        f.write_text("a b\nb c\n")
        code, out, _ = run(capsys, ["portrait", str(f), "--directed"])
        assert code == 0
        assert json.loads(out)["directed"] is True


class TestExperimentCommand:
    def test_unknown_name_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["experiment", "frobnicate"])
        assert code == 1

    def test_rewiring_curve_zero_rewirings(self, capsys):
        code, out, _ = run(capsys, ["experiment", "rewiring-curve", "--n-nodes", "30",
                                    "--er-p", "0.15", "--ba-m", "2", "--repeats", "2",
                                    "--rewirings", "0", "--seed", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "model,mode,n_rewirings,mean_d_js,sd_d_js,n_seeds"
        assert len(lines) == 5  # 2 models x 2 modes x 1 rewiring count
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[3]) == 0.0 and float(fields[4]) == 0.0

    def test_ensemble_distributions_csv(self, capsys):
        code, out, _ = run(capsys, ["experiment", "ensemble-distributions",
                                    "--n-nodes", "30", "--avg-degree", "4",
                                    "--pairs", "2", "--seed", "8"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "condition,pair,d_js"
        assert len(lines) == 7
        assert all(0.0 <= float(line.split(",")[2]) <= 1.0 for line in lines[1:])

    def test_deterministic_given_seed(self, capsys):
        argv = ["experiment", "ensemble-distributions", "--n-nodes", "25",
                "--avg-degree", "4", "--pairs", "2", "--seed", "11"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("argv, message", [
        (["rewiring-curve", "--repeats", "0"], "error: --repeats must be >= 1, got 0\n"),
        (["ensemble-distributions", "--n-nodes", "1", "--pairs", "1"],
         "error: ensembles need n_nodes >= 2, got 1\n"),
        (["rewiring-curve", "--n-nodes", "5", "--er-p", "1.0", "--models", "er",
          "--rewirings", "10", "--repeats", "2"], "error: rewiring attempt budget exhausted\n"),
        (["rewiring-curve", "--rewirings", "10,-1"],
         "error: --rewirings entries must be >= 0, got '10,-1'\n"),
    ], ids=["no-repeats", "one-node", "budget-exhausted", "negative-rewirings"])
    def test_bad_experiment_input_is_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, ["experiment", *argv])
        assert (code, out) == (2, "")
        assert err.startswith(message) and "Traceback" not in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["experiment", "ensemble-distributions",
                                    "--n-nodes", "25", "--avg-degree", "4",
                                    "--pairs", "1", "--seed", "1",
                                    "--format", "json"])
        rows = json.loads(out)
        assert len(rows) == 3
        assert {r["condition"] for r in rows} == {"er-er", "ba-ba", "er-ba"}


class TestSparsePortraits:
    def test_commands_never_build_dense_counts(self, capsys, tmp_path, monkeypatch,
                                               p3_file, k3_file):
        from netportrait import Portrait

        def dense(self):
            raise AssertionError("dense portrait counts built")

        monkeypatch.setattr(Portrait, "counts", property(dense))
        w1, w2 = tmp_path / "w1.edges", tmp_path / "w2.edges"
        w1.write_text("a b 1\nb c 2\nc d 0.5\n")
        w2.write_text("a b 1\nb c 1\nc a 1\n")
        weighted = [str(w1), str(w2), "--weighted", "--bins", "3"]
        for argv in (["compare", p3_file, k3_file], ["compare", *weighted],
                     ["matrix", p3_file, k3_file], ["matrix", *weighted],
                     ["experiment", "rewiring-curve", "--n-nodes", "30", "--er-p", "0.15",
                      "--ba-m", "2", "--repeats", "2", "--rewirings", "5"]):
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, "") and out
        with pytest.raises(AssertionError, match="dense"):
            main(["portrait", p3_file, "--format", "csv"])


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, tmp_path, p3_file, k3_file):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["compare", p3_file, k3_file,
                                    "--output", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["d_js"] == pytest.approx(D_JS_P3_K3, abs=1e-12)

    def test_unwritable_output_is_input_error(self, capsys, tmp_path, monkeypatch,
                                              p3_file, k3_file):
        import netportrait.cli
        loaded = []
        monkeypatch.setattr(netportrait.cli, "_load", lambda path, args: loaded.append(path))
        for target in (tmp_path / "no_such_dir" / "report.json", tmp_path):
            code, out, err = run(capsys, ["compare", p3_file, k3_file,
                                          "--output", str(target)])
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {target}: ") and "Traceback" not in err
            assert loaded == []  # failed before any input was read
        assert not (tmp_path / "no_such_dir").exists()

    def test_unwritable_output_fails_before_loading(self, capsys, tmp_path, monkeypatch,
                                                    p3_file, k3_file):
        # os.access stands in for permissions, which root would pass anyway
        import netportrait.cli
        loaded = []
        monkeypatch.setattr(netportrait.cli, "_load", lambda path, args: loaded.append(path))
        monkeypatch.setattr("netportrait.cli.os.access", lambda path, mode: False)
        (tmp_path / "old.json").write_text("old\n")
        for target in (tmp_path / "new.json", tmp_path / "old.json"):
            code, _, err = run(capsys, ["compare", p3_file, k3_file,
                                        "--output", str(target)])
            assert (code, loaded) == (2, [])
            assert err.startswith(f"error: {target}: ")
        assert (tmp_path / "old.json").read_text() == "old\n"
        assert not (tmp_path / "new.json").exists()

    def test_failed_write_keeps_old_file_and_leaves_no_partial(self, capsys, tmp_path,
                                                               monkeypatch, p3_file, k3_file):
        target = tmp_path / "report.json"
        target.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("netportrait.cli.os.replace", failing_replace)
        code, _, err = run(capsys, ["compare", p3_file, k3_file,
                                    "--output", str(target)])
        assert code == 2
        assert err == "error: disk full\n"
        assert target.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k3.edges", "p3.edges",
                                                              "report.json"]

    def test_symlinked_output_is_written_through(self, capsys, tmp_path, p3_file, k3_file):
        real = tmp_path / "real.json"
        real.write_text("old\n")
        real.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(real)
        code, _, _ = run(capsys, ["compare", p3_file, k3_file, "--output", str(link)])
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert json.loads(real.read_text())["d_js"] == pytest.approx(D_JS_P3_K3, abs=1e-12)
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k3.edges", "link.json",
                                                              "p3.edges", "real.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_output_is_written_in_place(self, capsys, tmp_path, p3_file, k3_file):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        code, _, _ = run(capsys, ["compare", p3_file, k3_file, "--format", "csv",
                                  "--output", str(fifo)])
        reader.join(timeout=10)
        assert code == 0
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert float(received[0]) == pytest.approx(D_JS_P3_K3, abs=1e-12)
