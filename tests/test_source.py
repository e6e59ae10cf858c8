"""Checks on the package source itself."""

import ast
import re
from collections import Counter
from pathlib import Path

import subsetcurrents
from subsetcurrents.cylinders import RoundGraph
from subsetcurrents.words import _Frozen

PACKAGE_DIR = Path(subsetcurrents.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def package_trees():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    return [(path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in modules]


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one.
    found = []
    for path, tree in package_trees():
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []


def test_package_reads_no_environment_variables():
    # Every setting is an argument or a flag; an environment layer is a
    # second source of defaults that no caller sees.
    found = []
    for path, tree in package_trees():
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, (ast.Attribute, ast.alias))
                     and (node.attr if isinstance(node, ast.Attribute)
                          else node.name) in ("environ", "getenv",
                                              "environb", "getenvb"))
    assert found == []


def _names(node: ast.AST):
    """Every name `node` reads, calls or imports, attributes included."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.asname or n.name
            yield n.name


def test_only_lens_rows_reads_lens_keys():
    # The matching rows are grouped in one place, `cylinders.lens_rows`;
    # check_matching, realize and approx._matching_matrix read the rows
    # from it.
    readers = []
    for path, tree in package_trees():
        scopes = [node for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        inner = {id(n) for scope in scopes for n in ast.walk(scope)}
        readers.extend(f"{path.name}:{scope.name}" for scope in scopes
                       if isinstance(scope, ast.FunctionDef)
                       and "lens_keys" in _names(scope))
        readers.extend(f"{path.name}:<module>" for node in ast.walk(tree)
                       if id(node) not in inner
                       and isinstance(node, (ast.Name, ast.Attribute,
                                             ast.alias))
                       and "lens_keys" in _names(node))
    assert readers == ["cylinders.py:lens_rows"]


def test_lens_keys_and_rationalize_walk_no_ball_and_build_no_candidates():
    # `lens_keys` reads each lens class off word prefixes, so no ball is
    # walked and no word translated; `rationalize` runs the continued
    # fraction on integers, so no candidate Fraction is built.  The ball
    # walk lives on in tests/helpers.py as the reference.
    banned = {"lens_ball", "translate_words", "limit_denominator"}
    for path, tree in package_trees():
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert banned.isdisjoint(set(_names(tree)) | defined), path.name


def _attributes(node: ast.AST) -> list[str]:
    """Every attribute name `node` reads."""
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]


# Builders that only tests call; tests/helpers.py holds them.
TEST_ONLY = {"realizable_witness", "local_ball", "axis", "restrict",
             "full_ball", "_ball_words", "conjugate", "canonical_form",
             "cyclic_reduce", "reduce", "enumerate_reduced_words",
             "subgroup_Gn", "add_path"}


def test_every_export_has_a_caller():
    # The package exports only what a caller uses: a package module reads
    # each exported name, the benchmark harness does, or the README names
    # it as code for its readers.
    (init,) = [tree for path, tree in package_trees()
               if path.name == "__init__.py"]
    exports = [alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = {name for path, tree in package_trees()
            if path.name != "__init__.py" for name in _names(tree)}
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = "\n".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))
    assert bench and code
    uncalled = [name for name in exports if name not in read
                and not re.search(rf"\b{name}\b", bench)
                and not re.search(rf"\b{name}\b", code)]
    assert uncalled == []
    defined = {node.name for _path, tree in package_trees()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert TEST_ONLY.isdisjoint(defined)
    # So does each public method and property of an exported class: a
    # package module reads it as an attribute outside its own `def`, or
    # the harness or the README code does.  A power by repeated products
    # is quadratic in the exponent, and nothing raises a Word to one.
    attributes = Counter(name for _path, tree in package_trees()
                         for name in _attributes(tree))
    uncalled = [f"{cls.name}.{f.name}" for _path, tree in package_trees()
                for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                and cls.name in exports for f in cls.body
                if isinstance(f, ast.FunctionDef)
                and not f.name.startswith("_")
                and attributes[f.name] == _attributes(f).count(f.name)
                and not re.search(rf"\.{f.name}\b", bench)
                and not re.search(rf"\.{f.name}\b", code)]
    assert uncalled == []
    assert "__pow__" not in defined


def _calls(node: ast.AST, name: str) -> bool:
    """True iff `node` holds a call of `name`, plain or as an attribute."""
    return any(isinstance(n, ast.Call)
               and name in (getattr(n.func, "id", None),
                            getattr(n.func, "attr", None))
               for n in ast.walk(node))


def _callers(name: str) -> list[str]:
    """Each package function that calls `name`, as file:function, and
    file:<module> for each call outside every function."""
    callers = []
    for path, tree in package_trees():
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)]
        inner = {id(n) for f in functions for n in ast.walk(f)}
        callers.extend(f"{path.name}:{f.name}" for f in functions
                       if _calls(f, name))
        callers.extend(f"{path.name}:<module>" for node in ast.walk(tree)
                       if id(node) not in inner
                       and isinstance(node, ast.Call)
                       and _calls(node, name))
    return callers


def _function(file: str, name: str) -> ast.FunctionDef:
    (tree,) = [tree for path, tree in package_trees() if path.name == file]
    (function,) = [node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def test_product_counts_are_read_without_decoding():
    # A `ProductGraph` keeps (#V, #E) per component beside its coded pairs
    # and edges, and decodes pairs and edges on each read.  N(H, K), the
    # SHNC margin and the census read only the counts; `intersect` decodes
    # for `--export` alone.
    decoded = {"vertices", "components", "component_edges"}
    intersect = _function("cli.py", "_cmd_intersect")
    counted = [stmt for stmt in intersect.body
               if not (isinstance(stmt, ast.If)
                       and "export" in set(_names(stmt.test)))]
    assert len(counted) == len(intersect.body) - 1
    rank, margin, census = (_function("fiber.py", name) for name in
                            ("product_rank", "shnc_margin",
                             "component_census"))
    for node in [rank, margin, census] + counted:
        assert decoded.isdisjoint(_names(node))
    assert _calls(rank, "component_stats") and _calls(margin, "product_rank")
    assert _calls(census, "component_stats")
    assert _calls(ast.Module(counted, []), "component_stats")


def test_realize_counts_are_read_without_decoding():
    # An `SCGraphQuotient` keeps atoms and their lengths, and decodes its
    # copies on each read of `vertices`, `components` or `component_edges`.
    # `decompose` counts each atom component's form by its length, and the
    # `realize` report counts vertices by theta's total and components by
    # the atom lengths, so neither costs what the weight costs.
    decoded = {"vertices", "components", "component_edges"}
    report, decompose = (_function("cli.py", "_cmd_realize"),
                         _function("realize.py", "decompose"))
    for node in (report, decompose):
        assert decoded.isdisjoint(_names(node))
    assert _calls(report, "total") and _calls(report, "component_count")
    assert {"atom_components", "atom_edges", "lengths"} <= set(
        _names(decompose))


def test_only_the_cylinders_report_calls_check_matching():
    # Each matching row is checked once, where it is used: `realize` raises
    # the first violated row and `rational_kernel_point` checks every
    # residual, so no value is checked again on its way between them.  Only
    # the CLI's `cylinders` report lists the violations of a table.
    assert _callers("check_matching") == ["cli.py:_cmd_cylinders"]


def test_lens_rows_has_one_reader_per_use():
    # The rows are summed as rationals to check a table, paired as copies
    # to realize one, and written once as sparse integer rows for the
    # kernel repair; a second integer form of them would be a second place
    # to keep in step with `lens_rows`.
    assert _callers("lens_rows") == ["approx.py:_matching_matrix",
                                     "cylinders.py:check_matching",
                                     "realize.py:realize"]


def _stored_builders() -> dict[str, list[str]]:
    """Each package function that calls `<Class>._stored`, as
    file:function, by class; `cls._stored` in a classmethod counts for
    the class that defines it."""
    builders: dict[str, dict[str, None]] = {}
    for path, tree in package_trees():
        owners = {id(f): c.name for c in ast.walk(tree)
                  if isinstance(c, ast.ClassDef) for f in c.body}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            for n in ast.walk(f):
                if isinstance(n, ast.Call) and isinstance(
                        n.func, ast.Attribute) and n.func.attr == "_stored":
                    owner = ast.unparse(n.func.value)
                    owner = owners[id(f)] if owner == "cls" else owner
                    builders.setdefault(owner, {})[
                        f"{path.name}:{f.name}"] = None
    return {owner: list(callers) for owner, callers in builders.items()}


def test_each_class_stored_as_given_has_one_builder():
    # `SCGraphQuotient` and `ProductGraph` store what their one builder
    # hands their constructor.  The `CoreGraph` of an intersection, of a
    # hull-core, of `core_from_generators` and of a `decompose` form or
    # term, the `Subgroup` of an intersection or of `from_core`, the
    # traced `RoundGraph` of a hull-core ball and the `Word` of a parse or
    # of a tree basis are stored unchecked with `<Class>._stored`, because
    # the one function that builds each proves its fields by how it builds
    # them; a second builder would bring in fields nothing proved.
    # `core_from_generators` lays every path from the basepoint
    # (connected) and folds them (folded, rows the signed adjacency, every
    # degree but the basepoint's >= 2); `decompose` renumbers components
    # that `realize` proved folded, connected and of degree >= 2, and
    # builds their rows once with `signed_adjacency`.  Every other value
    # runs its public constructor's checks.
    assert _callers("SCGraphQuotient") == ["realize.py:realize"]
    assert _callers("ProductGraph") == ["fiber.py:fiber_product"]
    assert _stored_builders() == {
        "CoreGraph": ["fiber.py:intersection", "realize.py:decompose",
                      "stallings.py:core_from_generators",
                      "stallings.py:hull_core"],
        "Subgroup": ["fiber.py:intersection", "stallings.py:from_core"],
        "RoundGraph": ["cylinders.py:cylinder_table"],
        "Word": ["stallings.py:_tree_basis", "words.py:parse_word"]}
    # The unchecked builders that `_stored` replaced, and the eager hash
    # slots, are gone.
    gone = {"_proved", "_reduced", "_traced", "_store", "_with_basis",
            "_hash"}
    for path, tree in package_trees():
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        strings = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)}
        assert gone.isdisjoint(set(_names(tree)) | defined | strings), \
            path.name
    # `realize` builds its components by union-find, with no adjacency
    # pass, no breadth-first search and no second shape key.
    (tree,) = [tree for path, tree in package_trees()
               if path.name == "realize.py"]
    assert {"connected_components",
            "least_bfs_encoding"}.isdisjoint(_names(tree))
    assert "signed_adjacency" not in _names(_function("realize.py",
                                                      "realize"))
    assert _callers("signed_adjacency") == ["realize.py:decompose",
                                            "stallings.py:__init__"]


def test_only_outside_input_is_validated():
    # A core that `core_from_generators` or `decompose` builds is proved by
    # how it is built (see the `_stored` pin above), so only the two
    # entries for outside graphs run the checked constructor: `fold` on a
    # `LabeledGraph` and `graph_from_text` on a file.  `core_from_generators`
    # lays its words straight into the fold's rows, with no `LabeledGraph`
    # and no call of `fold`.
    assert _callers("CoreGraph") == ["stallings.py:fold",
                                     "stallings.py:graph_from_text"]
    assert _callers("fold") == []
    assert _callers("_lay") == ["stallings.py:fold",
                                "stallings.py:core_from_generators"]
    assert _callers("_fold_rows") == ["stallings.py:fold",
                                      "stallings.py:core_from_generators"]
    assert "LabeledGraph" not in _names(_function("stallings.py",
                                                  "core_from_generators"))


def test_the_package_checks_no_kernel_rows_of_its_own():
    # `rational_kernel_point` checks rows and targets from outside; the
    # package's own repair, `approximate_table`, builds both and calls the
    # unchecked core `_kernel_point` directly.
    assert _callers("rational_kernel_point") == []
    assert sorted(_callers("_kernel_point")) == [
        "approx.py:approximate_table", "approx.py:rational_kernel_point"]
    # The kernel basis runs the echelon on the fresh int rows its two
    # callers build: it reads no entry as an int and refuses nothing.
    assert sorted(_callers("_nullspace_basis")) == [
        "approx.py:_kernel_point", "approx.py:_solve_nonsingular"]
    basis = _function("approx.py", "_nullspace_basis")
    assert not _calls(basis, "int")
    assert not any(isinstance(n, ast.Raise) for n in ast.walk(basis))


# The str methods that map or test case.
CASE_METHODS = {"lower", "upper", "casefold", "swapcase", "capitalize",
                "title", "islower", "isupper", "istitle"}


def test_the_alphabet_is_written_once():
    # `words` builds the alphabet at module level: `_SIGNED` holds the
    # signed letters in scan order and `_CHAR` their characters, the
    # only case mapping in the package, so no reader folds a character
    # such as the Kelvin sign into a letter.  `ALPHABET` is read only
    # there, and no helper spells a letter or the scan order again.
    mapped, alphabet = [], []
    for path, tree in package_trees():
        for stmt in tree.body:
            names = set(_names(stmt))
            where = (path.name, stmt.lineno,
                     [t.id for t in getattr(stmt, "targets", [])
                      if isinstance(t, ast.Name)])
            if CASE_METHODS & names:
                mapped.append(where)
            if "ALPHABET" in names:
                alphabet.append(where)
    assert [targets for _file, _line, targets in mapped] == [["_CHAR"]]
    assert {file for file, _line, _targets in mapped + alphabet} == \
        {"words.py"}
    assert [targets for _file, _line, targets in alphabet] == [
        ["ALPHABET"], ["MAX_RANK"], ["_CHAR"]]
    defined = {node.name for _path, tree in package_trees()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined.isdisjoint({"letter_to_char", "char_to_letter",
                               "_char_letters", "_signed_letters"})


def test_one_reader_reads_every_file_header():
    # `_read_file` alone splits subgroup, graph and table files into a
    # header and a body and reads the header, rank check included, so the
    # three formats share one rule; nothing tests text with `isdigit`,
    # which passes digits such as '\u00b2' that are no ASCII integer.
    readers = ["cylinders.py:table_from_text",
               "stallings.py:subgroup_from_text",
               "stallings.py:graph_from_text"]
    assert _callers("_content_lines") == ["stallings.py:_read_file"]
    assert _callers("_read_file") == readers
    for path, tree in package_trees():
        assert "isdigit" not in _names(tree), path.name
    for reader in readers:
        file, name = reader.split(":")
        assert not _calls(_function(file, name), "_check_rank"), reader
    assert _calls(_function("stallings.py", "_read_file"), "_check_rank")


def test_intersection_walks_the_product_once():
    # `intersection` reads its basis off the tree its product walk
    # recorded; only `Subgroup.from_core` walks a core again for one.
    assert _callers("basis_of") == ["stallings.py:from_core"]
    assert not _calls(_function("fiber.py", "intersection"), "from_core")


def test_one_rule_reads_a_basis_off_a_breadth_first_tree():
    # `basis_of` and `intersection` each record a breadth-first tree as
    # every vertex's first letter and tree parent, and `_tree_basis` alone
    # tells the tree edges from the rest and spells the basis words by
    # climbing the parents; no tree path is stored per vertex.
    assert _callers("_tree_basis") == ["fiber.py:intersection",
                                       "stallings.py:basis_of"]
    for node in (_function("fiber.py", "intersection"),
                 _function("stallings.py", "basis_of")):
        # Neither builds a basis word: `_tree_basis` alone does (see the
        # `_stored` pin above).
        assert {"tree", "inverse"}.isdisjoint(_names(node))
        assert not _calls(node, "Word")


def test_one_prune_and_one_component_join():
    # Every graph the package builds is pruned by `stallings._prune` and
    # has its components joined by `stallings.join_least`; a second prune
    # or union-find would be a second place to keep in step.
    # `core_from_generators` has nothing to prune (see its docstring), so
    # it only lists its sorted edges, with the code `_prune` lists them by.
    assert _callers("_prune") == ["fiber.py:intersection",
                                  "stallings.py:fold",
                                  "stallings.py:hull_core"]
    assert _callers("_sorted_edges") == ["stallings.py:_prune",
                                         "stallings.py:core_from_generators"]
    assert _callers("join_least") == ["fiber.py:fiber_product",
                                      "realize.py:realize",
                                      "stallings.py:__init__"]
    for path, tree in package_trees():
        names = set(_names(tree))
        assert "connected_components" not in names, path.name
        assert "_prune_edges" not in names, path.name
        if path.name in ("fiber.py", "realize.py"):
            assert "find_root" not in names, path.name


def test_kernel_repair_rounds_without_floats():
    # The repair is exact end to end.  `float(` or `math.floor`/`ceil`
    # is how a float shortcut would enter the rounding scan, and a float
    # q.u_i can round to the wrong k_i near a half or past 2**53.
    (tree,) = [tree for path, tree in package_trees()
               if path.name == "approx.py"]
    assert [name for name in ("float", "floor", "ceil")
            if _calls(tree, name)] == []


def _calls_object_setattr_on_self(cls: ast.ClassDef) -> bool:
    return any(isinstance(n, ast.Call)
               and isinstance(n.func, ast.Attribute)
               and n.func.attr == "__setattr__"
               and isinstance(n.func.value, ast.Name)
               and n.func.value.id == "object"
               and n.args and isinstance(n.args[0], ast.Name)
               and n.args[0].id == "self"
               for n in ast.walk(cls))


def test_immutability_lives_in_one_base():
    # `words._Frozen` alone refuses assignment and deletion; a class that
    # sets its own slots with object.__setattr__ is an immutable value and
    # must inherit that refusal.
    classes = [node for _path, tree in package_trees()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    bases = {c.name: {b.id for b in c.bases if isinstance(b, ast.Name)}
             for c in classes}
    frozen = {"_Frozen"}
    while True:
        more = {name for name, bs in bases.items() if bs & frozen} - frozen
        if not more:
            break
        frozen |= more
    overriders = [c.name for c in classes if c.name != "_Frozen"
                  for f in c.body if isinstance(f, ast.FunctionDef)
                  and f.name in ("__setattr__", "__delattr__")]
    unfrozen = [c.name for c in classes if c.name not in frozen
                and _calls_object_setattr_on_self(c)]
    assert "_Frozen" in bases
    assert overriders == []
    assert unfrozen == []


def test_only_the_store_and_two_lazy_caches_set_a_slot():
    # `_Frozen.__init_subclass__` writes each class's one store, `_set`
    # and `_stored`, as straight-line calls of its slots' descriptor
    # setters, and is the only code the package generates; the only
    # other writes are the two caches a `Subgroup` fills on first read.
    setters, setattrs, generated = [], [], []
    for path, tree in package_trees():
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)]
        owner = {id(n): f.name for f in functions for n in ast.walk(f)}
        for n in ast.walk(tree):
            site = f"{path.name}:{owner.get(id(n), '<outside>')}"
            if isinstance(n, ast.Attribute) and n.attr == "__set__":
                setters.append(site)
            elif (isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "__setattr__"
                  and isinstance(n.func.value, ast.Name)
                  and n.func.value.id == "object"):
                setattrs.append(site)
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id in ("exec", "eval", "compile")):
                generated.append(site)
    assert setters == ["words.py:__init_subclass__"]
    assert sorted(setattrs) == ["stallings.py:core", "stallings.py:hull"]
    assert generated == ["words.py:__init_subclass__"]


def test_constructor_parameters_are_the_first_slots():
    # `_set` fills the slots in order, constructors pass their parameters
    # first, and `__reduce__` rebuilds a value from its first slots.
    classes = _Frozen.__subclasses__()
    assert len(classes) == 9
    for cls in classes:
        code = cls.__init__.__code__
        params = code.co_varnames[1:code.co_argcount]
        assert cls.__slots__[:len(params)] == params, cls.__name__


def test_one_base_decides_equality_and_hashing():
    # `_Frozen` compares and hashes a value by its constructor's
    # parameters.  A round-graph reads its fields in place and hashes its
    # cached order key, for speed; a table's `entries` parameter is a
    # dict, which has no hash.  No other class spells either.
    def defines(node: ast.stmt) -> set[str]:
        """The names a class-body statement binds, a `def` or `name = ...`."""
        if isinstance(node, ast.FunctionDef):
            return {node.name}
        return {t.id for t in getattr(node, "targets", ())
                if isinstance(t, ast.Name)}

    classes = [node for _path, tree in package_trees()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    defined = sorted(f"{c.name}.{name}" for c in classes for f in c.body
                     for name in defines(f) & {"__eq__", "__hash__"})
    assert defined == ["RoundGraph.__eq__", "RoundGraph.__hash__",
                       "WeightTable.__hash__", "_Frozen.__eq__",
                       "_Frozen.__hash__"]


def test_round_graph_stores_one_form_of_its_words():
    # The words are kept once, as the canonical tuple; a set of them is
    # not stored beside it.
    assert RoundGraph.__slots__ == ("rank", "radius", "words", "_key")


def test_one_rule_checks_every_edge():
    # An edge's range and label are checked in one place, for the checked
    # constructor's rows and for `fold`'s input alike.
    assert _callers("_checked_edges") == ["stallings.py:signed_adjacency",
                                          "stallings.py:fold"]
