"""mpg's JSON documents are ``json.dumps(doc, indent=2, sort_keys=True)``
of the documents that the library's ``to_json`` methods build.

The CLI lays its JSON out directly, without building these documents; each
case here builds the document the plain way and compares bytes.
"""

import json

from mpgsolver import lattice, parse_arena, serialize_arena, ttpg, values
from mpgsolver.cli import main
from mpgsolver.oracle import gen_random_arena

LIST_CAPS = (0, 1, 16)


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def fraction(v):
    return {"num": v.numerator, "den": v.denominator}


def solve_doc(arena):
    vals = values.solve_values(arena)
    partition = values.ergodic_partition(arena, vals)
    strategy = values.synthesize_optimal(arena, partition)
    return {
        "values": vals.to_json(arena)["values"],
        "classes": [{
            "nu": fraction(cls.nu),
            "vertices": [arena.names[u] for u in cls.vertices],
            "least_sepm": cls.least_sepm().to_json(cls.subgame),
        } for cls in partition],
        "strategy": strategy.to_json(arena)["choice"],
    }


def enum_docs(arena, list_caps):
    """{list cap: the ``mpg enum`` document} for each cap in ``list_caps``."""
    vals = values.solve_values(arena)
    enumerated = []
    for cls in values.ergodic_partition(arena, vals):
        sub = cls.subgame
        x, b = lattice.enumerate_lattice(sub, cls.nu)
        enumerated.append((cls, x, b))
    docs = {}
    for cap in list_caps:
        classes = []
        for cls, x, b in enumerated:
            sub = cls.subgame
            blocks = lattice.decompose(sub, cls.nu, x, max_listed=cap)
            classes.append({
                "nu": fraction(cls.nu),
                "vertices": list(sub.names),
                "extremal_sepms": [f.to_json(sub) for f in x],
                "basic_subgames": [{
                    "id": node.id,
                    "removed_arcs": [[sub.names[u], sub.names[v]]
                                     for u, v in node.removed_arcs(sub)],
                    "least_sepm_id": node.sepm_id,
                    "parent_ids": list(node.parent_ids),
                } for node in b.nodes],
                "decomposition": [{
                    "sepm_id": block.sepm_id,
                    "count": block.count,
                    "strategies": [s.to_json(sub)["choice"]
                                   for s in block.strategies],
                } for block in blocks],
                "degenerate": len(b) > len(x),
            })
        docs[cap] = {"classes": classes}
    return docs


def ttpg_doc(arena, variant):
    build = ttpg.plain_ttpg if variant == "plain" else ttpg.min_ttpg
    return build(arena, 10).to_json(arena)


def fixpoint_doc(arena):
    f, k_reached, _ = ttpg.min_ttpg_fixpoint(arena)
    return {"k_reached": k_reached, "agrees_with_least_sepm": True,
            "energy": f.to_json(arena)}


def cli_json(capsys, *argv):
    assert main([*argv, "--format", "json"]) == 0
    return capsys.readouterr().out


def check_arena(capsys, path, arena):
    """Every JSON command on ``arena``, stored at ``path``, against its
    reference document; returns {command label: stdout}."""
    path = str(path)
    outs = {"solve": cli_json(capsys, "solve", path)}
    assert outs["solve"] == dumps(solve_doc(arena))
    for cap, doc in enum_docs(arena, LIST_CAPS).items():
        label = "enum %d" % cap
        outs[label] = cli_json(capsys, "enum", path,
                               "--list-strategies", str(cap))
        assert outs[label] == dumps(doc), label
    for variant in ("plain", "min"):
        outs[variant] = cli_json(capsys, "ttpg", path, "--variant", variant)
        assert outs[variant] == dumps(ttpg_doc(arena, variant)), variant
    outs["fixpoint"] = cli_json(capsys, "ttpg", path, "--variant", "min",
                                "--fixpoint")
    assert outs["fixpoint"] == dumps(fixpoint_doc(arena))
    return outs


def test_json_matches_json_dumps_on_the_acceptance_corpus(capsys, tmp_path):
    # the corpus of tests/test_acceptance.py
    for seed in range(200):
        arena = gen_random_arena(6, 3, 4, seed)
        path = tmp_path / ("random-%d.mpg" % seed)
        path.write_text(serialize_arena(arena), encoding="utf-8")
        check_arena(capsys, path, arena)


def test_json_edge_cases_match_json_dumps(capsys, tmp_path, data_dir,
                                          gamma_d, gamma_ex, nonpositional):
    # ids that sort out of declaration order: t < u4 and v10 < v2
    check_arena(capsys, data_dir / "nonpositional.mpg", nonpositional)
    wider = gen_random_arena(12, 3, 4, 1)
    (tmp_path / "wider.mpg").write_text(serialize_arena(wider),
                                        encoding="utf-8")
    check_arena(capsys, tmp_path / "wider.mpg", wider)
    gamma_d_out = check_arena(capsys, data_dir / "gamma_d.mpg", gamma_d)
    assert '"degenerate": true' in gamma_d_out["enum 16"]
    gamma_ex_out = check_arena(capsys, data_dir / "gamma_ex.mpg", gamma_ex)
    assert '"top"' in gamma_ex_out["fixpoint"]
    for out in (gamma_d_out, gamma_ex_out):
        assert '"parent_ids": [],\n' in out["enum 16"]  # the root's
        assert '"removed_arcs": []\n' in out["enum 16"]
        assert '"strategies": []\n' in out["enum 0"]
    # every vertex Player 1's: the strategy and each listed one are {}
    only_p1 = tmp_path / "player1.mpg"
    only_p1.write_text("v a 1\nv b 1\ne a b 1\ne b a -1\ne b b 2\n",
                       encoding="utf-8")
    outs = check_arena(capsys, only_p1, parse_arena(only_p1.read_bytes()))
    assert '"strategy": {},\n' in outs["solve"]
    assert '"strategies": [\n            {}\n          ]' in outs["enum 16"]

