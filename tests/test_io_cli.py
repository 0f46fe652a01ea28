import argparse
import json
import re
from fractions import Fraction

import pytest

from maxilat import (FinitePoset, InvariantError, MonotoneMap,
                     RationalConeMap, SelectionError, adjoint_of,
                     build_selection, build_space, dm_completion,
                     enumerate_posets, enumerate_unlabeled_posets,
                     extend_lower_star, extend_star, iter_monotone_values,
                     m_arrow)
from maxilat import cli, harness, maxitive
from maxilat.cli import main
from maxilat.io import (FormatError, fixture, fixture_map, fixture_poset,
                        labeled_values, load_map, load_poset, map_from_dict,
                        map_to_dict, parse_selection_spec, poset_from_dict,
                        poset_to_dict, selection_from_dict)

from conftest import (WholeBaseTraces, buffered_harness_payload, write_map,
                      write_poset)


class TestPosetFiles:
    def test_round_trip_on_enumerated_posets(self, tmp_path):
        path = tmp_path / "p.json"
        for p in enumerate_posets(4):
            write_poset(p, path)
            again = load_poset(path)
            assert poset_to_dict(again) == poset_to_dict(p)
            assert again.matrix == p.matrix

    def test_reflexive_cover_is_accepted(self):
        doc = {"elements": ["a", "b"], "covers": [["a", "a"], ["a", "b"]]}
        p = poset_from_dict(doc)
        assert p.leq(0, 1)

    def test_two_cycle_is_rejected_with_the_cycle(self):
        doc = {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}
        with pytest.raises(FormatError, match="cycle through {a, b}"):
            poset_from_dict(doc)

    def test_longer_cycle_is_reported(self):
        doc = {"elements": ["a", "b", "c"],
               "covers": [["a", "b"], ["b", "c"], ["c", "a"]]}
        with pytest.raises(FormatError, match="cycle"):
            poset_from_dict(doc)

    def test_unknown_cover_label(self):
        doc = {"elements": ["a"], "covers": [["a", "q"]]}
        with pytest.raises(FormatError, match="covers\\[0\\].*'q'"):
            poset_from_dict(doc)

    def test_missing_field(self):
        with pytest.raises(FormatError, match="missing field 'covers'"):
            poset_from_dict({"elements": ["a"]})

    def test_duplicate_elements(self):
        with pytest.raises(FormatError, match="distinct"):
            poset_from_dict({"elements": ["a", "a"], "covers": []})


class TestBundledFixtures:
    def test_seven_poset_has_exactly_the_stated_relations(self, seven):
        p = fixture_poset("seven.json")
        assert p.n == 7
        expected = {("a", "alpha"), ("b", "alpha"), ("b", "beta"),
                    ("c", "beta"), ("c", "gamma"), ("a", "gamma"),
                    ("a", "z"), ("b", "z"), ("c", "z")}
        strict = {(p.label_of(i), p.label_of(j))
                  for i in range(p.n) for j in range(p.n)
                  if i != j and p.leq(i, j)}
        assert strict == expected
        assert p.matrix == seven.matrix

    def test_seven_indicator_map(self):
        v = fixture_map("seven_indicator.json")
        assert isinstance(v, MonotoneMap)
        assert v.values[v.source.index_of("z")] == 1
        assert sum(v.values) == 1

    def test_two_chain(self):
        p = fixture_poset("two_chain.json")
        assert p.n == 2 and p.leq(0, 1)


class TestMapFiles:
    def test_round_trip_monotone(self, tmp_path):
        v = fixture_map("seven_indicator.json")
        path = tmp_path / "m.json"
        write_map(v, path)
        again = load_map(path)
        assert again.values == v.values
        assert again.source.matrix == v.source.matrix

    def test_round_trip_rational(self, tmp_path):
        doc = {"source": {"elements": ["x", "y"], "covers": [["x", "y"]]},
               "values": {"x": "1/2", "y": 3}}
        v = map_from_dict(doc)
        assert isinstance(v, RationalConeMap)
        path = tmp_path / "c.json"
        write_map(v, path)
        assert load_map(path).values == v.values

    def test_round_trip_on_unlabeled_posets(self):
        # an unlabeled element is written under its index, "0", "1", ...,
        # in the posets and in the values alike, so every map reads back
        posets = list(enumerate_unlabeled_posets(3))
        checked = 0
        for e in posets:
            for l in posets:
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    again = map_from_dict(map_to_dict(v))
                    assert again.source.matrix == e.matrix
                    assert again.target.matrix == l.matrix
                    assert again.values == values
                    checked += 1
        assert checked == 476
        diamond = FinitePoset.from_relation(4, [(0, 1), (0, 2), (1, 3),
                                                (2, 3)])
        cone = RationalConeMap(diamond, (0, Fraction(1, 2), Fraction(1, 3), 1))
        again = map_from_dict(map_to_dict(cone))
        assert isinstance(again, RationalConeMap)
        assert again.source.matrix == diamond.matrix
        assert again.values == cone.values
        assert again.source.labels == ("0", "1", "2", "3")

    def test_missing_value(self):
        doc = {"source": {"elements": ["x"], "covers": []},
               "target": {"elements": ["0"], "covers": []},
               "values": {}}
        with pytest.raises(FormatError, match="no value for element 'x'"):
            map_from_dict(doc)

    def test_non_monotone_is_rejected(self):
        doc = {"source": {"elements": ["x", "y"], "covers": [["x", "y"]]},
               "target": {"elements": ["0", "1"], "covers": [["0", "1"]]},
               "values": {"x": "1", "y": "0"}}
        with pytest.raises(FormatError, match="order-preserving"):
            map_from_dict(doc)

    @pytest.mark.parametrize("target", [True, False])
    def test_value_for_an_unknown_element(self, target):
        doc = {"source": {"elements": ["x"], "covers": []},
               "values": {"x": "0", "y": "0"}}
        if target:
            doc["target"] = {"elements": ["0"], "covers": []}
        with pytest.raises(FormatError,
                           match="value for unknown element 'y'"):
            map_from_dict(doc)

    def test_unknown_target_label(self):
        doc = {"source": {"elements": ["x"], "covers": []},
               "target": {"elements": ["0"], "covers": []},
               "values": {"x": "7"}}
        with pytest.raises(FormatError, match="unknown element"):
            map_from_dict(doc)


class TestSelectionSpecs:
    def test_kind_specs(self, chain3):
        for kind in ("principal", "filtered", "upper"):
            sel = parse_selection_spec(chain3, kind)
            assert str(sel.kind) == kind

    def test_unknown_kind(self, chain3):
        with pytest.raises(SelectionError, match="unknown selection kind"):
            parse_selection_spec(chain3, "bogus")

    def test_explicit_file(self, tmp_path):
        labeled = FinitePoset.chain(3, labels=("0", "1", "2"))
        path = tmp_path / "sel.json"
        path.write_text(json.dumps({"fsets": [["1", "2"]],
                                    "recursion": "principal"}))
        sel = parse_selection_spec(labeled, f"explicit:{path}")
        assert frozenset({1, 2}) in sel.fsets

    def test_explicit_dict_rejects_bad_labels(self):
        labeled = FinitePoset.chain(3, labels=("0", "1", "2"))
        with pytest.raises(FormatError, match="unknown element"):
            selection_from_dict(labeled, {"fsets": [["zz"]]})


DIAMOND_DOC = {"elements": ["bot", "a", "b", "top"],
               "covers": [["bot", "a"], ["bot", "b"], ["a", "top"],
                          ["b", "top"]]}
C3_DOC = {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]}

# one document per refusal of io that the other tests leave alone: the
# reader it goes to ("poset", "map", a selection "spec" or a "selection"
# document on C3_DOC), the document and the message
MALFORMED = {
    "field-of-the-wrong-type": (
        "poset", {"elements": "ab", "covers": []},
        "field 'elements' must be a list"),
    "non-string-element-name": (
        "poset", {"elements": ["a", 1], "covers": []},
        "element names must be strings"),
    "cover-not-a-pair": (
        "poset", {"elements": ["a", "b"], "covers": [["a", "b", "a"]]},
        r"covers\[0\] must be a pair"),
    "value-not-a-target-name": (
        "map", {"source": {"elements": ["x"], "covers": []},
                "target": {"elements": ["0"], "covers": []},
                "values": {"x": 0}},
        "values must name target elements"),
    "non-monotone-cone": (
        "map", {"source": {"elements": ["x", "y"], "covers": [["x", "y"]]},
                "values": {"x": 1, "y": 0}},
        r"not order-preserving on \(0, 1\)"),
    "bare-explicit-spec": (
        "spec", "explicit", "explicit selections need a file"),
    "fsets-entry-not-a-list": (
        "selection", {"fsets": ["1"]},
        r"fsets\[0\] must be a list of labels"),
    "explicit-set-not-upper": (
        "selection", {"fsets": [["1"]]},
        r"\[1\] is not an upper set"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_document_is_a_format_error(tmp_path, capsys, case):
    reader, doc, message = MALFORMED[case]
    c3 = poset_from_dict(C3_DOC)
    read = {"poset": poset_from_dict, "map": map_from_dict,
            "spec": lambda spec: parse_selection_spec(c3, spec),
            "selection": lambda sel: selection_from_dict(c3, sel)}[reader]
    with pytest.raises(FormatError, match=message):
        read(doc)
    path, sel_path = tmp_path / "doc.json", tmp_path / "sel.json"
    path.write_text(json.dumps(C3_DOC if reader in ("spec", "selection")
                               else doc))
    sel_path.write_text(json.dumps(doc))
    argv = {"poset": ["poset", "check", str(path)],
            "map": ["map", "check", str(path)],
            "spec": ["poset", "check", str(path), "--selection", doc],
            "selection": ["poset", "check", str(path), "--selection",
                          f"explicit:{sel_path}"]}[reader]
    assert main(argv) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.fixture
def seven_path(tmp_path):
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(fixture("seven.json")))
    return str(path)


@pytest.fixture
def indicator_path(tmp_path):
    path = tmp_path / "indicator.json"
    path.write_text(json.dumps(fixture("seven_indicator.json")))
    return str(path)


class TestCli:
    def test_poset_check(self, seven_path, capsys):
        assert main(["poset", "check", seven_path,
                     "--selection", "principal"]) == 0
        out = capsys.readouterr().out
        assert "7 elements" in out and "union-complete: True" in out

    def test_map_check_flags_the_counterexample(self, indicator_path, capsys):
        assert main(["map", "check", indicator_path, "--pairwise"]) == 1
        out = capsys.readouterr().out
        assert "maxitive: False" in out
        assert "['a', 'b', 'c']" in out
        assert "pairwise maxitive: True" in out

    def test_map_check_writes_json(self, indicator_path, tmp_path, capsys):
        out_path = tmp_path / "verdict.json"
        main(["map", "check", indicator_path, "--out", str(out_path)])
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc == {"maxitive": False, "witness": ["a", "b", "c"]}

    @pytest.mark.parametrize("kind, flags, message", [
        ("poset", ["--alternating", "4"], "--alternating applies only"),
        ("cone", ["--pairwise"], "--pairwise applies only"),
        ("cone", ["--alternating", "0"], "depth must be at least 1")],
        ids=["alternating-on-a-poset-map", "pairwise-on-a-cone",
             "alternating-depth-0"])
    def test_map_check_refuses_a_flag_it_would_ignore(
            self, indicator_path, tmp_path, capsys, kind, flags, message):
        # --alternating checks rational-valued maps and --pairwise
        # poset-valued ones; the other kind would skip the check
        if kind == "poset":
            path = indicator_path
        else:
            path = tmp_path / "cone.json"
            path.write_text(json.dumps({"source": {"elements": ["a", "b"],
                                                   "covers": [["a", "b"]]},
                                        "values": {"a": 0, "b": 1}}))
        out_path = tmp_path / "verdict.json"
        assert main(["map", "check", str(path), *flags,
                     "--out", str(out_path)]) == 2
        assert message in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("values, code, expected", [
        ({"bot": 0, "a": 0, "b": 0, "top": 1}, 1,
         {"maxitive": False, "alternating": False,
          "witness": {"at": "bot", "along": ["a", "b"]}}),
        ({"bot": 0, "a": 1, "b": 1, "top": 1}, 0,
         {"maxitive": True, "alternating": True})],
        ids=["fails-at-depth-3", "maxitive"])
    def test_map_check_alternating_on_the_diamond(
            self, tmp_path, capsys, values, code, expected):
        # the diamond bot < a, b < top; 0, 0, 0, 1 breaks the depth-3
        # inequality at bot along (a, b)
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"source": DIAMOND_DOC, "values": values}))
        out_path = tmp_path / "verdict.json"
        assert main(["map", "check", str(path), "--alternating", "3",
                     "--out", str(out_path)]) == code
        capsys.readouterr()
        assert json.loads(out_path.read_text()) == expected

    def test_map_check_pairwise_failure_exits_1(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "source": DIAMOND_DOC,
            "target": {"elements": ["0", "1"], "covers": [["0", "1"]]},
            "values": {"bot": "0", "a": "0", "b": "0", "top": "1"}}))
        out_path = tmp_path / "verdict.json"
        assert main(["map", "check", str(path), "--pairwise",
                     "--out", str(out_path)]) == 1
        assert "pairwise maxitive: False" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["pairwise_maxitive"] is False

    def test_out_is_the_json_dumps_object(self, seven_path, indicator_path,
                                          tmp_path, capsys):
        # a payload without a streamed value goes through the writer of the
        # streamed ones: each value written with json.dumps, on one line
        c2 = tmp_path / "c2.json"
        c2.write_text(json.dumps({"elements": ["0", "1"],
                                  "covers": [["0", "1"]]}))
        out_path = tmp_path / "out.json"
        for argv in (["poset", "check", seven_path, "--selection", "upper"],
                     ["map", "check", indicator_path, "--pairwise"],
                     ["mspace", "build", str(c2), str(c2)],
                     ["mspace", "verify", str(c2), str(c2), "--lemma",
                      "corollary"]):
            main([*argv, "--out", str(out_path)])
            text = out_path.read_text()
            doc = json.loads(text)
            assert len(doc) >= 2, argv
            assert text == "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                           for k, v in doc.items()) + "}\n"
        cli._write_out(argparse.Namespace(out=str(out_path)), {})
        assert out_path.read_text() == "{}\n"
        capsys.readouterr()

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["poset", "check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [float("inf"), float("-inf"), True, False,
                                     float("nan")])
    def test_map_check_rejects_a_cone_value_that_is_not_rational(
            self, tmp_path, capsys, raw):
        # json writes the floats as Infinity, -Infinity and NaN, which it
        # also reads back; a boolean is not read as 1 or 0
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"source": {"elements": ["a", "b"],
                                               "covers": [["a", "b"]]},
                                    "values": {"a": 0, "b": raw}}))
        assert main(["map", "check", str(path)]) == 2
        assert "value for 'b' is not rational" in capsys.readouterr().err

    def test_cycle_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cyc.json"
        bad.write_text(json.dumps({"elements": ["a", "b"],
                                   "covers": [["a", "b"], ["b", "a"]]}))
        assert main(["poset", "check", str(bad)]) == 2
        assert "cycle" in capsys.readouterr().err

    def test_lattice_arrow(self, tmp_path, capsys):
        path = tmp_path / "c3.json"
        path.write_text(json.dumps({"elements": ["0", "1", "2"],
                                    "covers": [["0", "1"], ["1", "2"]]}))
        assert main(["lattice", "arrow", str(path), "--r", "2", "--s", "1"]) == 0
        assert "= 0" in capsys.readouterr().out

    def test_lattice_arrow_rejects_m3(self, tmp_path, capsys):
        doc = {"elements": ["bot", "a", "b", "c", "top"],
               "covers": [["bot", "a"], ["bot", "b"], ["bot", "c"],
                          ["a", "top"], ["b", "top"], ["c", "top"]]}
        path = tmp_path / "m3.json"
        path.write_text(json.dumps(doc))
        assert main(["lattice", "arrow", str(path), "--r", "a", "--s", "b"]) == 2
        assert "distributive" in capsys.readouterr().err

    @pytest.fixture
    def two_atoms_map(self, tmp_path):
        """The document of a map of a, b < z into the 2-chain."""
        doc = {"source": {"elements": ["a", "b", "z"],
                          "covers": [["a", "z"], ["b", "z"]]},
               "target": {"elements": ["0", "1"], "covers": [["0", "1"]]},
               "values": {"a": "0", "b": "1", "z": "1"}}
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        return path

    def test_map_extend_star(self, two_atoms_map, capsys):
        assert main(["map", "extend", str(two_atoms_map),
                     "--mode", "star"]) == 0
        assert "star region" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["star", "lower-star"])
    def test_map_extend_out_is_a_map_document(self, two_atoms_map, tmp_path,
                                              capsys, mode):
        # load_map reads the extension back on its region, and map check
        # finds it maxitive
        path, out = two_atoms_map, tmp_path / "ext.json"
        assert main(["map", "extend", str(path), "--mode", mode,
                     "--out", str(out)]) == 0
        v = load_map(path)
        ext = dm_completion(v.source)
        if mode == "star":
            sel = build_selection(v.source, "principal")
            extended = extend_star(v, ext, sel,
                                   build_selection(v.target, "principal"))
        else:
            extended = extend_lower_star(v, ext)
        again = load_map(out)
        assert (again.source, again.target, again.values) == (
            extended.source, extended.target, extended.values)
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == f"{mode} region: {list(again.source.labels)}"
        assert main(["map", "check", str(out)]) == 0
        assert capsys.readouterr().out == "maxitive: True\n"

    def test_map_extend_invariant_failure_is_not_a_usage_error(
            self, tmp_path, monkeypatch, capsys):
        # a failed proved consequence is a failed check, exit 1, not 2
        doc = {"source": {"elements": ["0", "1"], "covers": [["0", "1"]]},
               "target": {"elements": ["0", "1"], "covers": [["0", "1"]]},
               "values": {"0": "0", "1": "1"}}
        path, out_path = tmp_path / "v.json", tmp_path / "out.json"
        path.write_text(json.dumps(doc))
        real = cli.extend_lower_star
        monkeypatch.setattr(cli, "extend_lower_star",
                            lambda v, ext: real(v, WholeBaseTraces(ext)))
        assert main(["map", "extend", str(path), "--mode", "lower-star",
                     "--out", str(out_path)]) == 1
        assert capsys.readouterr().err == (
            "error: InvariantError: lower-star extension does not restrict "
            "to v at 0\n")
        assert not out_path.exists()

    def test_map_extend_refuses_an_unknown_selection_kind(self, indicator_path,
                                                          tmp_path, capsys):
        out_path = tmp_path / "out.json"
        assert main(["map", "extend", str(indicator_path), "--mode", "star",
                     "--selection", "bogus", "--out", str(out_path)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown selection kind 'bogus'\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("spec", ["explicit", "explicit:sel.json"])
    def test_map_extend_refuses_an_explicit_selection(self, indicator_path,
                                                      tmp_path, capsys, spec):
        # one flag selects on both posets, and an explicit file names the
        # sets of one; the file is never read
        out_path = tmp_path / "out.json"
        assert main(["map", "extend", str(indicator_path), "--mode", "star",
                     "--selection", spec, "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: map extend builds the source's and the "
                              "target's selection")
        assert "principal, filtered or upper" in err
        assert not out_path.exists()

    def test_map_residuated_and_adjoint(self, tmp_path, capsys):
        doc = {"source": {"elements": ["0", "1"], "covers": [["0", "1"]]},
               "target": {"elements": ["0", "1"], "covers": [["0", "1"]]},
               "values": {"0": "0", "1": "1"}}
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        assert main(["map", "residuated", str(path)]) == 0
        out = capsys.readouterr().out
        assert "residuated: True" in out
        assert main(["map", "adjoint", str(path)]) == 0
        assert "w(0)" in capsys.readouterr().out

    def test_map_residuated_with_a_completion_file(self, tmp_path, capsys):
        # the 2-chain inside the 3-chain 0 < 1 < 2, labels matched by name;
        # the default completion would label its elements {0} and {0,1}
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "source": {"elements": ["0", "1"], "covers": [["0", "1"]]},
            "target": {"elements": ["0", "1"], "covers": [["0", "1"]]},
            "values": {"0": "0", "1": "1"}}))
        ext = tmp_path / "c3.json"
        ext.write_text(json.dumps(C3_DOC))
        out_path = tmp_path / "out.json"
        assert main(["map", "residuated", str(path), "--ext", str(ext),
                     "--out", str(out_path)]) == 0
        assert "w(1) = 1" in capsys.readouterr().out
        assert json.loads(out_path.read_text()) == {
            "residuated": True, "adjoint": {"0": "0", "1": "1"}}
        ext.write_text(json.dumps({"elements": ["0", "x"],
                                   "covers": [["0", "x"]]}))
        assert main(["map", "residuated", str(path), "--ext", str(ext)]) == 2
        assert ("completion does not cover the base"
                in capsys.readouterr().err)

    def test_mspace_build_and_verify(self, tmp_path, capsys):
        c2 = tmp_path / "c2.json"
        c2.write_text(json.dumps({"elements": ["0", "1"],
                                  "covers": [["0", "1"]]}))
        assert main(["mspace", "build", str(c2), str(c2)]) == 0
        assert "maxitive maps: 3" in capsys.readouterr().out
        for lemma in ("inf", "generator", "representation", "corollary",
                      "frame"):
            assert main(["mspace", "verify", str(c2), str(c2),
                         "--lemma", lemma]) == 0
            assert "ok" in capsys.readouterr().out

    def test_mspace_verify_reports_the_frame_counterexample(
            self, tmp_path, capsys, three_atoms_under_top, m3_lattice):
        cx = three_atoms_under_top
        e, l, out = (tmp_path / name for name in ("e.json", "l.json",
                                                  "out.json"))
        write_poset(cx.source, e)
        write_poset(cx.target, l)
        assert main(["mspace", "verify", str(e), str(l), "--lemma", "frame",
                     "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["space"] == 5
        assert [list(cx.u), list(cx.v)] in [[bad["u"], bad["v"]]
                                            for bad in doc["violations"]]
        # a non-distributive target fails the hypothesis, not the lemma
        write_poset(m3_lattice, l)
        assert main(["mspace", "verify", str(e), str(l),
                     "--lemma", "frame"]) == 2
        assert "distributive" in capsys.readouterr().err

    def test_mspace_verify_frame_reports_the_hypothesis(
            self, tmp_path, capsys, three_atoms_under_top):
        # the frame document carries I(E); the other lemmas' do not
        cx = three_atoms_under_top
        e, l, out = (tmp_path / name for name in ("e.json", "l.json",
                                                  "out.json"))
        write_poset(cx.source, e)
        write_poset(cx.target, l)
        assert main(["mspace", "verify", str(e), str(l), "--lemma", "frame",
                     "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert list(doc) == ["lemma", "space", "ideal_lattice_distributive",
                             "ideals", "violations"]
        assert (doc["ideal_lattice_distributive"], doc["ideals"]) == (False, 5)
        assert "I(E): 5 ideals, not distributive" in capsys.readouterr().out
        write_poset(FinitePoset.chain(3), e)
        assert main(["mspace", "verify", str(e), str(l), "--lemma", "frame",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["ideal_lattice_distributive"], doc["ideals"]) == (True, 4)
        assert main(["mspace", "verify", str(e), str(l), "--lemma", "inf",
                     "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())) == ["lemma", "space",
                                                      "violations"]

    def test_mspace_verify_frame_on_the_256_map_space(self, tmp_path, capsys):
        # A4 -> C4: 65,536 arrows and their adjunctions, on the masks
        e, l, out = (tmp_path / name for name in ("e.json", "l.json",
                                                  "out.json"))
        write_poset(FinitePoset.antichain(4), e)
        write_poset(FinitePoset.chain(4), l)
        assert main(["mspace", "verify", str(e), str(l), "--lemma", "frame",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["space"], doc["violations"]) == (256, [])
        assert "ok (0 violations, space size 256)" in capsys.readouterr().out

    def test_mspace_arrow(self, tmp_path, capsys):
        c2 = {"elements": ["0", "1"], "covers": [["0", "1"]]}
        u = tmp_path / "u.json"
        v = tmp_path / "v.json"
        u.write_text(json.dumps({"source": c2, "target": c2,
                                 "values": {"0": "0", "1": "0"}}))
        v.write_text(json.dumps({"source": c2, "target": c2,
                                 "values": {"0": "0", "1": "1"}}))
        assert main(["mspace", "arrow", "--u", str(u), "--v", str(v)]) == 0
        out = capsys.readouterr().out
        assert "(u <- v)(0) = 0" in out and "(u <- v)(1) = 1" in out

    def test_mspace_arrow_refuses_a_cone(self, tmp_path, capsys):
        c2 = {"elements": ["0", "1"], "covers": [["0", "1"]]}
        u = tmp_path / "u.json"
        v = tmp_path / "v.json"
        u.write_text(json.dumps({"source": c2, "values": {"0": 0, "1": "1/2"}}))
        v.write_text(json.dumps({"source": c2, "target": c2,
                                 "values": {"0": "0", "1": "1"}}))
        for pair in ((u, v), (v, u)):
            assert main(["mspace", "arrow", "--u", str(pair[0]),
                         "--v", str(pair[1])]) == 2
            assert "poset-valued maps" in capsys.readouterr().err

    def test_labeled_values_are_written_by_io(self, tmp_path):
        # each {source label: target label} dict of an --out document is
        # what io gives for the library's result, on labels that are not
        # the indices: a, b < z into the chain lo < mid < hi
        e = FinitePoset.from_relation(3, [(0, 2), (1, 2)], ("a", "b", "z"))
        l = FinitePoset.chain(3, labels=("lo", "mid", "hi"))
        u, v = MonotoneMap(e, l, (1, 0, 1)), MonotoneMap(e, l, (1, 2, 2))
        paths = {name: tmp_path / f"{name}.json"
                 for name in ("e", "l", "u", "v", "out")}
        write_poset(e, paths["e"])
        write_poset(l, paths["l"])
        write_map(u, paths["u"])
        write_map(v, paths["v"])

        def out_doc(*argv):
            assert main([*map(str, argv), "--out", str(paths["out"])]) == 0
            return json.loads(paths["out"].read_text())

        w = adjoint_of(u, dm_completion(e)).map
        adjoint = labeled_values(w.source, w.target, w.values)
        assert out_doc("map", "adjoint", paths["u"]) == {"adjoint": adjoint}
        assert out_doc("map", "residuated", paths["u"]) == {
            "residuated": True, "adjoint": adjoint}
        space = build_space(e, l)
        assert out_doc("mspace", "build", paths["e"], paths["l"]) == {
            "count": len(space),
            "maps": [labeled_values(e, l, values) for values in space.maps]}
        arrow = m_arrow(space, space.index_of(u.values),
                        space.index_of(v.values))
        assert arrow.values == (0, 2, 2)
        assert out_doc("mspace", "arrow", "--u", paths["u"],
                       "--v", paths["v"]) == {
            "arrow": labeled_values(arrow.source, arrow.target, arrow.values)}

    def test_map_check_refuses_a_value_for_an_unknown_element(
            self, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"source": {"elements": ["a"], "covers": []},
                                    "values": {"a": 0, "b": 1}}))
        assert main(["map", "check", str(path)]) == 2
        assert "unknown element 'b'" in capsys.readouterr().err

    def test_harness_run_with_out(self, tmp_path, capsys):
        out_path = tmp_path / "verdicts.json"
        assert main(["harness", "run", "seven-element",
                     "--out", str(out_path)]) == 0
        assert "1 pass, 0 fail" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["pass"] == 1
        assert doc["records"][0]["claim"] == "seven-element"

    def test_harness_out_streams_the_buffered_document(self, tmp_path, capsys):
        # every claim at the bounds of the tier-1 suite: the streamed document
        # loads as the payload that used to be built in memory, apart from
        # elapsed, and keeps one record per line with the summary last
        def strip(doc):
            for rec in doc["records"]:
                del rec["elapsed"]
            return doc
        for claim in sorted(harness.CLAIMS):
            out_path = tmp_path / f"{claim}.json"
            code = main(["harness", "run", claim, "--max-size", "2",
                         "--out", str(out_path)])
            text = out_path.read_text()
            doc = json.loads(text)
            expected = buffered_harness_payload(claim, max_size=2)
            assert code == (1 if expected["summary"]["fail"] else 0)
            assert strip(doc) == strip(expected)
            assert list(doc) == ["claim", "records", "summary"]
            lines = text.splitlines()
            assert len(lines) == len(doc["records"]) + 2
            assert [json.loads(line.rstrip(","))["claim"]
                    for line in lines[1:-1]] == [claim] * len(doc["records"])
        capsys.readouterr()

    def test_harness_out_is_the_json_dumps_document(self, tmp_path, capsys):
        # every claim at size 3: the streamed document has the bytes of its
        # records written with json.dumps, one per line
        for claim in sorted(harness.CLAIMS):
            out_path = tmp_path / f"{claim}.json"
            depth = ["--depth", "2"] if claim == "alternating" else []
            main(["harness", "run", claim, "--max-size", "3", *depth,
                  "--out", str(out_path)])
            text = out_path.read_text()
            doc = json.loads(text)
            records = ",".join("\n" + json.dumps(rec)
                               for rec in doc["records"])
            assert text == (f'{{"claim": {json.dumps(claim)}, '
                            f'"records": [{records}\n], '
                            f'"summary": {json.dumps(doc["summary"])}}}\n')
        capsys.readouterr()

    def test_a_cycle_fails_and_leaves_no_out_file(self, tmp_path):
        cycle = {"claim": "x"}
        cycle["self"] = [cycle]
        out_path = tmp_path / "doc.json"
        for payload in ({"records": iter([{"n": 1}, cycle])},
                        {"records": iter([{"n": 1}]), "summary": cycle}):
            with pytest.raises((ValueError, RecursionError)):
                cli._write_out(argparse.Namespace(out=str(out_path)), payload)
            assert not out_path.exists()

    def test_harness_error_leaves_no_out_file(self, tmp_path, capsys):
        # a claim over labeled posets and one over unlabeled posets
        out_path = tmp_path / "f"
        for claim in ("interpolation", "representation"):
            assert main(["harness", "run", claim, "--max-size", "6",
                         "--out", str(out_path)]) == 2
            assert "exceeds the enumeration cap" in capsys.readouterr().err
            assert not out_path.exists()

    def test_harness_invariant_failure_exits_1(self, tmp_path, monkeypatch,
                                               capsys):
        # an InvariantError while generating instances stops the run as a
        # failed check: exit 1, the error on stderr, no --out file; the
        # claim reads each star region through maxitive's cached region,
        # which an earlier run in this process may have filled
        def broken(ext, sel_e):
            raise InvariantError("the star region misses part of the base "
                                 "image")
        monkeypatch.setattr(maxitive, "e_star", broken)
        maxitive._star_region_of.cache_clear()
        out_path = tmp_path / "f"
        assert main(["harness", "run", "extension-extremality", "--max-size",
                     "2", "--out", str(out_path)]) == 1
        assert capsys.readouterr().err == (
            "error: InvariantError: the star region misses part of the base "
            "image\n")
        assert not out_path.exists()

    def test_harness_unknown_claim_is_a_usage_error(self, capsys):
        import pytest as _pytest
        with _pytest.raises(SystemExit):
            main(["harness", "run", "nonsense"])


# one valid argv per command, after its group and leaf words
VALID_ARGS = {
    ("poset", "check"): ["p.json", "--selection", "principal", "--out", "o"],
    ("map", "check"): ["m.json", "--pairwise", "--alternating", "3"],
    ("map", "extend"): ["m.json", "--mode", "star", "--ext", "dm"],
    ("map", "residuated"): ["m.json", "--ext", "c.json"],
    ("map", "adjoint"): ["m.json"],
    ("lattice", "arrow"): ["l.json", "--r", "a", "--s", "b"],
    ("mspace", "build"): ["e.json", "l.json", "--cap", "10"],
    ("mspace", "arrow"): ["--u", "u.json", "--v", "v.json"],
    ("mspace", "verify"): ["e.json", "l.json", "--lemma", "frame"],
    ("harness", "run"): ["interpolation", "--max-size", "2", "--selections",
                         "principal", "upper", "--depth", "2"],
}


def _subparser(parser, word):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[word]


def _exit(parse, argv, capsys):
    """The exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestLeafParser:
    """The parser that main builds for one command reads and reports as
    that command's parser in the full tree."""

    def test_every_command_has_a_sample(self):
        assert set(VALID_ARGS) == {
            (group, leaf)
            for group, (_, leaves) in cli._command_table().items()
            for leaf in leaves}

    @pytest.mark.parametrize("command", sorted(VALID_ARGS))
    def test_the_chain_parses_as_the_full_tree(self, command, capsys):
        full, own = cli.build_parser(), cli.build_parser(command)
        group, leaf = command
        assert (own.format_help()
                == _subparser(_subparser(full, group), leaf).format_help())
        argv = [*command, *VALID_ARGS[command]]
        assert own.parse_args(argv[2:]) == full.parse_args(argv)
        for bad in ([*command], [*argv, "--no-such-flag"]):
            expected = _exit(full.parse_args, bad, capsys)
            assert expected[0] == 2 and expected[2]
            assert _exit(main, bad, capsys) == expected

    def test_a_command_builds_no_subparsers(self):
        for command in VALID_ARGS:
            assert not any(isinstance(action, argparse._SubParsersAction)
                           for action in cli.build_parser(command)._actions)

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["nosuch"], ["nosuch", "run"], ["mspace"],
        ["mspace", "nosuch"], ["harness", "verify"], ["mspace", "--help"],
        ["map", "-h", "check"]])
    def test_other_words_get_the_full_tree(self, argv, capsys):
        expected = _exit(cli.build_parser().parse_args, argv, capsys)
        assert _exit(main, argv, capsys) == expected
        assert expected[0] == (0 if {"-h", "--help"} & set(argv) else 2)
