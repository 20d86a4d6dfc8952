#!/usr/bin/env python3
"""The paper's running example, reproduced step by step.

Walks through Sections II-V on the Figure 2 book document:

1. extended Dewey encoding + FST label-path derivation (Example 2.1),
2. Table I/II — view decomposition into path patterns,
3. VFILTER construction and Example 3.4 filtering,
4. Example 4.3 — leaf covers and heuristic selection,
5. Example 5.1 — refinement, the encoding join and extraction.

Run:  python examples/paper_walkthrough.py
"""

from repro import (
    MaterializedViewSystem,
    DocumentSchema,
    encode_tree,
    leaf_cover_labels,
    parse_xpath,
)
from repro.core import VFilter, View
from repro.xmltree import XMLNode, XMLTree, format_code
from repro.xpath import str_text

TABLE_I = {
    "V1": "s[t]/p",
    "V2": "s[.//f]/p",
    "V3": "s//*/t",
    "V4": "s[p]/f",
}
QUERY = "s[f//i][t]/p"


def build_figure_2() -> XMLTree:
    """book.xml with the labels b,t,a,s,p,f,i of Figure 2."""
    b = XMLNode("b")
    b.new_child("t")
    b.new_child("a")
    b.new_child("a")
    s1 = b.new_child("s")
    s1.new_child("t")
    s1.new_child("p")
    s1.new_child("f").new_child("i")
    s2 = b.new_child("s")
    s2.new_child("t")
    s2.new_child("p")
    s2.new_child("p")
    s3 = s2.new_child("s")
    s3.new_child("t")
    s3.new_child("p")
    s3.new_child("f").new_child("i")
    return XMLTree(b)


def main() -> None:
    schema = DocumentSchema("b", {
        "b": ["t", "a", "s"],
        "s": ["t", "p", "s", "f"],
        "t": [], "a": [], "p": [], "f": ["i"], "i": [],
    })
    document = encode_tree(build_figure_2(), schema)

    print("== Section II: extended Dewey codes + FST ==")
    for node in document.tree.iter_nodes():
        path = "/".join(document.fst.decode(node.dewey))
        print(f"  {format_code(node.dewey):<12} {node.label}   ({path})")
    print("  FST transitions:", document.fst.transitions())

    print("\n== Section III: D(V) and VFILTER (Tables I & II) ==")
    views = {vid: View.from_xpath(vid, expr) for vid, expr in TABLE_I.items()}
    vfilter = VFilter()
    for view in views.values():
        vfilter.add_view(view)
        paths = ", ".join(
            f"{p.to_xpath()} (STR={str_text(p)})" for p in view.paths
        )
        print(f"  {view.view_id}: {view.to_xpath():<14} D = {{{paths}}}")
    print(f"  automaton: {vfilter.nfa.state_count} states, "
          f"{vfilter.nfa.transition_count} transitions")

    query = parse_xpath(QUERY)
    result = vfilter.filter(query)
    print(f"\n  filtering Qe = {QUERY}  ->  candidates {list(result.candidates)}")
    for path, entries in result.lists.items():
        print(f"    LIST({path.to_xpath()}) = {entries}")

    print("\n== Section IV: leaf covers (Example 4.3) ==")
    for vid in ("V1", "V4"):
        labels = sorted(leaf_cover_labels(views[vid], query))
        print(f"  LC({vid}, Qe) = {labels}")

    print("\n== Section V: rewriting (Example 5.1) ==")
    system = MaterializedViewSystem(document)
    for vid, expr in TABLE_I.items():
        fitted = system.register_view(vid, expr)
        print(f"  materialized {vid}: {system.fragments.fragment_count(vid)} "
              f"fragments, {system.fragments.fragment_bytes(vid)} bytes"
              f"{'' if fitted else '  (CAPPED)'}")
    outcome = system.answer(QUERY, "HV")
    print(f"  HV selects {outcome.view_ids}; "
          f"extraction from {outcome.rewrite_result.extraction_view}")
    print(f"  answers: {[format_code(c) for c in outcome.codes]}")
    assert outcome.codes == system.direct_codes(QUERY)
    print("  equals direct evaluation ✓")


if __name__ == "__main__":
    main()
