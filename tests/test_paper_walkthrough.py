"""The paper's running example, end to end (Sections II-V).

These tests pin the library to the paper's own worked numbers: Figure 2
encodings, the Figure 3 FST, Table I/II decomposition, the Example 3.2
false-negative scenario, Example 3.4 filtering, Example 4.3 selection
and Example 5.1 rewriting.
"""

import pytest

from repro import MaterializedViewSystem, encode_tree
from repro.core import VFilter, View, select_heuristic
from repro.core.leaf_cover import leaf_cover_labels
from repro.xmltree import DocumentSchema, XMLTree, XMLNode, format_code
from repro.xpath import decompose, normalize, parse_xpath, str_text


def paper_book_tree() -> XMLTree:
    """Figure 2's book.xml, with the sibling layout that reproduces the
    paper's exact codes for the b-children (0,1,4,5,8)."""
    b = XMLNode("b")
    b.new_child("t")
    b.new_child("a")
    b.new_child("a")
    s1 = b.new_child("s")
    s1.new_child("t")
    s1.new_child("p")
    f1 = s1.new_child("f")
    f1.new_child("i")
    s2 = b.new_child("s")
    s2.new_child("t")
    s2.new_child("p")
    s2.new_child("p")
    s3 = s2.new_child("s")  # components 0,1,5 then 6 -> s3 is 0.8.6
    s3.new_child("t")
    s3.new_child("p")
    f = s3.new_child("f")
    f.new_child("i")
    return XMLTree(b)


@pytest.fixture
def paper_schema():
    return DocumentSchema("b", {
        "b": ["t", "a", "s"],
        "s": ["t", "p", "s", "f"],
        "t": [], "a": [], "p": [], "f": ["i"], "i": [],
    })


@pytest.fixture
def paper_doc(paper_schema):
    return encode_tree(paper_book_tree(), paper_schema)


class TestFigure2And3:
    def test_book_children_codes(self, paper_doc):
        """t,a,a,s,s under book receive 0,1,4,5,8 exactly as printed."""
        codes = [format_code(c.dewey) for c in paper_doc.tree.root.children]
        assert codes == ["0.0", "0.1", "0.4", "0.5", "0.8"]

    def test_example_2_1_label_path_derivation(self, paper_doc):
        """0.8.6 decodes through the FST as b/s/s (Example 2.1)."""
        s3 = None
        for node in paper_doc.tree.iter_nodes():
            if node.dewey == (0, 8, 6):
                s3 = node
        assert s3 is not None and s3.label == "s"
        assert paper_doc.fst.decode((0, 8, 6)) == ("b", "s", "s")

    def test_common_prefix_reasoning(self, paper_doc):
        """Nodes 0.8.6.0 and 0.8.6.1 share two s-labeled ancestors."""
        from repro.xmltree import common_prefix

        prefix = common_prefix((0, 8, 6, 0), (0, 8, 6, 1))
        assert prefix == (0, 8, 6)
        assert paper_doc.fst.decode(prefix) == ("b", "s", "s")

    def test_fst_transitions_match_figure_3(self, paper_doc):
        table = paper_doc.fst.transitions()
        assert table == {"b": ("t", "a", "s"), "s": ("t", "p", "s", "f"),
                         "f": ("i",)}


TABLE_I = {
    "V1": "s[t]/p",
    "V2": "s[.//f]/p",
    "V3": "s//*/t",
    "V4": "s[p]/f",
}


class TestSectionIII:
    def test_table_ii_decompositions(self):
        views = {vid: View.from_xpath(vid, expr) for vid, expr in TABLE_I.items()}
        assert [p.to_xpath() for p in views["V1"].paths] == ["//s/t", "//s/p"]
        assert [p.to_xpath() for p in views["V2"].paths] == ["//s//f", "//s/p"]
        assert [p.to_xpath() for p in views["V3"].paths] == ["//s//*/t"]
        assert [p.to_xpath() for p in views["V4"].paths] == ["//s/p", "//s/f"]

    def test_str_transformation(self):
        """STR omits '/' and writes '#' for '//' (Section III-B)."""
        path = parse_xpath("/b//f").to_path_pattern()
        assert str_text(path) == "b#f"
        path2 = parse_xpath("/b/s").to_path_pattern()
        assert str_text(path2) == "bs"

    def test_example_3_2_false_negative_without_normalization(self):
        """Reading the unnormalized s/*//t misses the s//*/t automaton;
        normalization (Example 3.3) repairs it."""
        raw = parse_xpath("//s/*//t").to_path_pattern()
        normalized = normalize(raw)
        assert normalized.to_xpath() == "//s//*/t"
        vfilter = VFilter()
        vfilter.add_view(View.from_xpath("V3", "s//*/t"))
        assert vfilter.filter(parse_xpath("//s/*//t")).candidates == ("V3",)

    def test_example_3_4_filtering(self):
        vfilter = VFilter()
        for vid, expr in TABLE_I.items():
            vfilter.add_view(View.from_xpath(vid, expr))
        result = vfilter.filter(parse_xpath("s[f//i][t]/p"))
        # V3 is the only view filtered out.
        assert result.candidates == ("V1", "V2", "V4")
        # the sorted lists of Example 3.4 (shape): s/t -> {V1}, s/p -> all
        by_leaf = {p.leaf_label(): entries for p, entries in result.lists.items()}
        assert [vid for vid, _ in by_leaf["t"]] == ["V1"]
        assert sorted(vid for vid, _ in by_leaf["p"]) == ["V1", "V2", "V4"]
        assert sorted(vid for vid, _ in by_leaf["i"]) == ["V2", "V4"]


class TestSectionIV:
    def test_example_4_3_leaf_covers(self):
        query = parse_xpath("s[f//i][t]/p")
        assert leaf_cover_labels(View.from_xpath("V4", "s[p]/f"), query) == {
            "i", "p",
        }
        assert leaf_cover_labels(View.from_xpath("V1", "s[t]/p"), query) == {
            "Δ", "t", "p",
        }

    def test_example_4_3_heuristic_selects_v1_v4(self):
        vfilter = VFilter()
        views = {vid: View.from_xpath(vid, expr) for vid, expr in TABLE_I.items()}
        for view in views.values():
            vfilter.add_view(view)
        query = parse_xpath("s[f//i][t]/p")
        result = vfilter.filter(query)
        selection = select_heuristic(result, views.__getitem__, query)
        assert sorted(selection.view_ids) == ["V1", "V4"]


class TestSectionVExample51:
    def test_rewriting_on_the_book_document(self, paper_doc):
        """V1 = s[t]/p and V2 = s[p]/f answer Qe = s[f//i][t]/p; the
        surviving p-nodes are exactly those under an s that also has an
        f//i — computed from fragments + encodings only."""
        system = MaterializedViewSystem(paper_doc)
        assert system.register_view("V1", "s[t]/p")
        assert system.register_view("V2", "s[p]/f")
        outcome = system.answer("s[f//i][t]/p")
        truth = system.direct_codes("s[f//i][t]/p")
        assert outcome.codes == truth
        assert sorted(outcome.view_ids) == ["V1", "V2"]
        # extraction happened from one of the delta-capable views
        assert outcome.rewrite_result.extraction_view in ("V1", "V2")
        # all answers are p nodes under an s with f//i
        for code in outcome.codes:
            assert paper_doc.fst.label_of(code) == "p"
