import pytest

from selparse import load_resources
from selparse.grammar import (GrammarError, apply_qfpsoa_declarations,
                              compile_entry, load_declarations, load_lexicon,
                              render_sign)
from selparse.parser import Edge


def entry_of(lexicon, word, sense=None):
    entries = lexicon[word]
    if sense is None:
        assert len(entries) == 1
        return entries[0]
    return next(e for e in entries if e.sense_id == sense)


def test_declarations_loaded(hierarchy, decls):
    assert set(decls) == {"eat", "repair", "naming", "call", "retire", "list"}
    assert decls["eat"] == (("eater", "animate"), ("eaten", "edible"))
    assert decls["repair"] == (("repairer", "person"),
                               ("repaired", "artifact"))


def test_load_resources_defaults_to_the_bundled_files(hierarchy, decls,
                                                      lexicon):
    loaded_hierarchy, loaded_lexicon, loaded_decls = load_resources()
    assert loaded_hierarchy.sorts == hierarchy.sorts
    assert loaded_hierarchy.root == hierarchy.root
    assert (loaded_lexicon, loaded_decls) == (lexicon, decls)


def test_load_resources_names_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "lexicon.txt"
    bad.write_bytes(b"tom | proper-noun | man\n\xff\n")
    with pytest.raises(GrammarError) as info:
        load_resources(lexicon=bad)
    assert str(info.value).startswith(f"{bad}: ")
    assert "can't decode byte 0xff" in str(info.value)


def test_declaration_errors(hierarchy):
    with pytest.raises(GrammarError, match="bad declaration"):
        load_declarations("eat eater: animate\n", hierarchy)
    with pytest.raises(GrammarError, match="duplicate role"):
        load_declarations("eat(eater: animate, eater: edible)\n", hierarchy)
    with pytest.raises(GrammarError, match="unknown restriction sort"):
        load_declarations("eat(eater: gadget)\n", hierarchy)
    with pytest.raises(GrammarError, match="duplicate declaration"):
        load_declarations("eat(eater: ref)\neat(eater: ref)\n", hierarchy)
    for text in ("eat()\n", "Eat(  )\n"):
        with pytest.raises(GrammarError,
                           match="^line 1: 'eat' declares no roles$"):
            load_declarations(text, hierarchy)
    with pytest.raises(GrammarError,
                       match="^line 1: expected 'role: sort', got ''$"):
        load_declarations("eat(a: ref,)\n", hierarchy)


def test_bundled_lexicon_shape(lexicon):
    senses = sorted(e.sense_id for e in lexicon["printer"])
    assert senses == ["printer_peripheral", "printer_person"]
    assert {e.index_sort for e in lexicon["printer"]} \
        == {"printer_person", "printer_peripheral"}
    assert entry_of(lexicon, "tom").name_atom == "Tom"
    assert entry_of(lexicon, "ate").valence == "trans"
    assert entry_of(lexicon, "list").valence == "imp"


def test_empty_lexicon(hierarchy, decls):
    assert load_lexicon("# nothing\n\n", hierarchy, decls) == {}


def test_subject_fills_first_role(hierarchy, decls, lexicon):
    # a transitive verb offers two slots for eat's two roles
    entry = entry_of(lexicon, "ate")
    effective = apply_qfpsoa_declarations(entry, decls, hierarchy)
    assert effective == (("eater", "animate"), ("eaten", "edible"))


def test_arity_mismatch_rejected(hierarchy, decls):
    with pytest.raises(GrammarError, match="slot"):
        load_lexicon("sings | verb | eat | intrans\n", hierarchy, decls)


def test_lexicon_errors(hierarchy, decls):
    cases = [
        ("word-only\n", "expected"),
        ("blob | gizmo | ref\n", "unknown part of speech"),
        ("runs | verb | sprint | intrans\n", "unknown qfpsoa"),
        ("runs | verb | eat\n", "needs exactly one of"),
        ("rock | noun | mineral\n", "unknown sort"),
        ("rock | noun\n", "names no index sort"),
        ("the | determiner | ref\n", "takes no core or extras"),
        ("rock | noun | keybd | name=Rocky\n", "takes no name atom"),
        # a name atom that is a sort would be numbered as an index
        ("tom | proper-noun | man | name=man\n",
         "^line 1: name atom 'man' is a declared sort$"),
        ("man | proper-noun | man\n",
         "^line 1: name atom 'man' is a declared sort$"),
        ("printer | noun | keybd | sense=x\nprinter | noun | banana | sense=x\n",
         "duplicate sense"),
        ("gobble | verb | eat | trans, name=Foo\n",
         "^line 1: verb 'gobble' takes no name atom$"),
        # naming has a role called name: a role override or a name atom?
        ("dubbed | verb | naming | trans, name=Foo\n",
         "^line 1: extra 'name' is ambiguous: 'naming' has a role named "
         "'name'$"),
        # no sentence can reach a word that tokenize splits or trims
        ("ice cream | noun | banana\n",
         "^line 1: 'ice cream' is not a single token$"),
        ("tom. | proper-noun | man\n", r"^line 1: 'tom\.' is not a single token$"),
        (" | noun | banana\n", "^line 1: '' is not a single token$"),
        ("runs | verb\n", "^line 1: verb 'runs' names no qfpsoa$"),
        ("runs | verb | eat | trans, fast\n", "^line 1: unknown flag 'fast'$"),
        ("nibbled | verb | eat | trans, eaten=\n",
         "^line 1: bad extra 'eaten='$"),
        ("nibbled | verb | eat | trans, eaten=banana, eaten=banana\n",
         "^line 1: duplicate extra 'eaten'$"),
        ("rock | noun | keybd | shiny\n", "^line 1: unknown extra 'shiny'$"),
        ("gnawed | verb | eat | trans, eaten=gadget\n",
         "^line 1: 'gnawed': unknown sort 'gadget' for role 'eaten'$"),
    ]
    for text, message in cases:
        with pytest.raises(GrammarError, match=message):
            load_lexicon(text, hierarchy, decls)


def test_shared_declaration_restricts_both_verbs(hierarchy, decls, lexicon):
    for word in ("repaired", "fix"):
        effective = apply_qfpsoa_declarations(
            entry_of(lexicon, word), decls, hierarchy)
        assert effective == (("repairer", "person"), ("repaired", "artifact"))


def test_override_narrowing_allowed(hierarchy, decls):
    lex = load_lexicon("nibbled | verb | eat | trans, eaten=Banana\n",
                       hierarchy, decls)
    effective = apply_qfpsoa_declarations(lex["nibbled"][0], decls, hierarchy)
    assert effective == (("eater", "animate"), ("eaten", "banana"))


def test_override_widening_rejected(hierarchy, decls):
    # keybd is not under edible, so it cannot narrow eaten
    with pytest.raises(GrammarError, match="not subsumed"):
        load_lexicon("gnawed | verb | eat | trans, eaten=keybd\n",
                     hierarchy, decls)
    with pytest.raises(GrammarError, match="unknown role"):
        load_lexicon("gnawed | verb | eat | trans, chewer=man\n",
                     hierarchy, decls)


def test_compile_ate_bg(hierarchy, decls, lexicon):
    sign = compile_entry(entry_of(lexicon, "ate"), decls, "bg", hierarchy)
    nuc = sign.nucleus
    assert nuc.sort == "eat"
    assert list(dict(nuc.roles)) == ["eater", "eaten"]
    eater, eaten = dict(nuc.roles)["eater"], dict(nuc.roles)["eaten"]
    assert eater.sort == "ref" and eaten.sort == "ref"
    # the valence slots are the nucleus role fillers
    assert sign.subj[0] is eater
    assert sign.comps[0] is eaten
    # the word's variables: its role indices in declaration order
    assert sign.indices == (eater, eaten)
    restrictions = {(r.sort, next(iter(dict(r.roles).values())))
                    for r in sign.bg}
    assert restrictions == {("animate", eater), ("edible", eaten)}
    assert ("edible", eaten) in restrictions  # the object must be edible


def test_compile_ate_index(hierarchy, decls, lexicon):
    sign = compile_entry(entry_of(lexicon, "ate"), decls, "index", hierarchy)
    assert dict(sign.nucleus.roles)["eater"].sort == "animate"
    assert dict(sign.nucleus.roles)["eaten"].sort == "edible"
    assert sign.bg == ()


def test_compile_tom_both_methods(hierarchy, decls, lexicon):
    tom = entry_of(lexicon, "tom")
    bg_sign = compile_entry(tom, decls, "bg", hierarchy)
    assert bg_sign.index.sort == "ref"
    atoms = {(r.sort, tuple(dict(r.roles))) for r in bg_sign.bg}
    assert atoms == {("naming", ("brer", "name")), ("man", ("inst",))}
    naming = next(r for r in bg_sign.bg if r.sort == "naming")
    assert dict(naming.roles)["brer"] is bg_sign.index
    assert dict(naming.roles)["name"] == "Tom"

    ix_sign = compile_entry(tom, decls, "index", hierarchy)
    assert ix_sign.index.sort == "man"
    assert [r.sort for r in ix_sign.bg] == ["naming"]


def test_compile_keyboard_both_methods(hierarchy, decls, lexicon):
    keyboard = entry_of(lexicon, "keyboard")
    bg_sign = compile_entry(keyboard, decls, "bg", hierarchy)
    assert bg_sign.index.sort == "ref"
    assert [r.sort for r in bg_sign.restr] == ["keybd"]
    assert dict(bg_sign.restr[0].roles)["inst"] is bg_sign.index
    assert bg_sign.bg == ()

    ix_sign = compile_entry(keyboard, decls, "index", hierarchy)
    assert ix_sign.index.sort == "keybd"
    assert ix_sign.restr == () and ix_sign.bg == ()


def _restriction_pairs_bg(sign, hierarchy):
    """(slot, sort) pairs read off a bg-compiled sign, naming excluded."""
    pairs = set()
    slots = {slot: i for i, slot in enumerate((*sign.subj, *sign.comps))}
    if sign.index is not None:
        slots.setdefault(sign.index, "self")
    for ref in (*sign.bg, *sign.restr):
        if ref.sort == "naming":
            continue
        (filler,) = dict(ref.roles).values()
        pairs.add((slots[filler], ref.sort))
    return pairs


def _restriction_pairs_index(sign, hierarchy):
    pairs = set()
    for i, slot in enumerate((*sign.subj, *sign.comps)):
        sort = slot.sort
        if sort != hierarchy.root:
            pairs.add((i, sort))
    if sign.index is not None and sign.index.sort != hierarchy.root:
        pairs.add(("self", sign.index.sort))
    return pairs


def test_method_correspondence(hierarchy, decls, lexicon):
    for entries in lexicon.values():
        for entry in entries:
            bg_sign = compile_entry(entry, decls, "bg", hierarchy)
            ix_sign = compile_entry(entry, decls, "index", hierarchy)
            assert _restriction_pairs_bg(bg_sign, hierarchy) \
                == _restriction_pairs_index(ix_sign, hierarchy), entry


@pytest.mark.parametrize("method", ["bg", "index"])
def test_a_word_lists_its_index_nodes(hierarchy, decls, lexicon, method):
    for entries in lexicon.values():
        for entry in entries:
            sign = compile_entry(entry, decls, method, hierarchy)
            if sign.nucleus is not None:
                expected = tuple(dict(sign.nucleus.roles).values())
            else:
                expected = (sign.index,) if sign.index is not None else ()
            assert sign.indices == expected, entry


def rendered(sign):
    edge = Edge(0, 1, "x", sign)
    return render_sign(sign, edge.variables, edge.sorts)


def test_compilation_deterministic(hierarchy, decls, lexicon):
    for entries in lexicon.values():
        for entry in entries:
            for method in ("bg", "index"):
                one = compile_entry(entry, decls, method, hierarchy)
                two = compile_entry(entry, decls, method, hierarchy)
                assert rendered(one) == rendered(two)
                for part in ("index", "nucleus"):
                    node = getattr(one, part)
                    assert node is None or node is not getattr(two, part)
