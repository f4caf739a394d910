"""Source checks for the determinism contract that no runtime test can see.

Ranks and trajectories must not depend on the BLAS thread count, so the only
BLAS products allowed are the scorers' bounds() in model.py, whose error
bounds hold for any summation order, and model.squared_norms, whose result
only bounds() may read; scoring math stays in model.py, so the loss and
ranking code never branch on a scorer; gradient rows are summed by one
ordered helper, never by a ufunc's unbuffered .at(); every random stream
is NumPy's, derived from the config seed, never the stdlib random module's;
only artifact.py writes files or packs frames, so every write is atomic;
mined structures stay array rows until a caller iterates them, so only the
miner's view builds SymmetricStructure objects; every array the training
step allocates names its dtype, so none silently widens the float32 state;
negatives and ranking filter through one index of known triple keys;
only graph.read_tsv splits lines on tabs, so every input file shares its rules,
and only graph.text_lines opens a text input, so every one is decoded alike;
rows are ordered by graph._row_order's packed int64 key, never by np.lexsort
outside it;
only cli._emit encodes a subcommand's JSON document, and experiment.report_to_json
the experiment report it may print, so no subcommand grows its own output fork;
training options have one parser, config's, so cli adds their flags as plain
strings and a value reads the same from a flag and from a config file;
only the one alignment kernel normalizes vectors, so the alignment formula
has one copy for the training step and the tests' contrastive_loss view;
train() draws positives once per epoch, outside its batch loop; the
benchmark-only views stay unused by the package; and the README's Library
section lists exactly what the package exports.
"""

import ast
import importlib.util
import re
from pathlib import Path

import symkge
from symkge.model import ScorerKind

SRC = Path(symkge.__file__).parent
BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "multi_dot", "einsum", "tensordot"}
# squared_norms uses einsum: over a 14,541 x 200 entity table it takes 2.7 ms
# against 11.4 ms for (rows * rows).sum(), one thread. So only bounds() and
# the ranking that passes the norms to bounds() may call it.
ALLOWED = {("model.py", "TransE.bounds"), ("model.py", "DistMult.bounds"),
           ("model.py", "squared_norms")}
NORM_CALLERS = {("model.py", "TransE.bounds"), ("model.py", "DistMult.bounds"),
                ("evaluation.py", "_filtered_ranks")}


def _called_name(node) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    return None


def _is_blas_product(node) -> bool:
    return (
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ) or _called_name(node) in BLAS_FUNCTIONS


def _uses_norms(node) -> bool:
    # An alias would hide later calls from the name check, so it counts as a use.
    return _called_name(node) == "squared_norms" or (
        isinstance(node, ast.alias) and node.name == "squared_norms" and node.asname is not None
    )


def _scopes(path: Path, matches) -> list[tuple[str, int]]:
    """(enclosing class/function path, line) of each node in a module that matches."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if matches(node):
            found.append((".".join(scope), getattr(node, "lineno", 0)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def _assert_only_in(matches, allowed):
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _scopes(path, matches):
            assert (path.name, scope) in allowed, f"{path.name}:{line}: not allowed in {scope}"
            seen.add((path.name, scope))
    assert seen == allowed  # the detector still finds the uses that are allowed


def test_blas_products_only_in_bounds():
    _assert_only_in(_is_blas_product, ALLOWED)


def test_squared_norms_feed_only_bounds():
    _assert_only_in(_uses_norms, NORM_CALLERS)


def _builds_structures(node) -> bool:
    # An alias would hide later calls from the name check, so it counts as a build.
    return _called_name(node) == "SymmetricStructure" or (
        isinstance(node, ast.alias) and node.name == "SymmetricStructure"
        and node.asname is not None
    )


def test_structures_built_only_when_iterated():
    """One object per structure is what ran mining out of memory at full density."""
    _assert_only_in(_builds_structures, {("mining.py", "Structures.__iter__")})


def _keys_triples(node) -> bool:
    # An alias would hide later calls from the name check, so it counts as a use.
    return _called_name(node) == "triple_keys" or (
        isinstance(node, ast.alias) and node.name == "triple_keys" and node.asname is not None
    )


def test_one_known_triple_index():
    """Negatives and ranking read one key index, built by graph.known_keys, through
    one candidate-run layout, graph.candidate_runs."""
    _assert_only_in(_keys_triples, {("graph.py", "known_keys"),
                                    ("graph.py", "candidate_runs")})


def _uses_lexsort(node) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "lexsort")
            or (isinstance(node, ast.Name) and node.id == "lexsort")
            or (isinstance(node, ast.alias) and node.name == "lexsort"))


def test_rows_sorted_by_packed_keys():
    """np.lexsort took 166-248 ms to order the adjacency at FB15k-237 density, where
    one argsort of a packed int64 key took 18-26 ms; graph._row_order packs the key
    and keeps np.lexsort only for columns whose key would not fit in int64."""
    detected = "np.lexsort((a, b))\nsort = np.lexsort\nfrom numpy import lexsort"
    assert len([node for node in ast.walk(ast.parse(detected)) if _uses_lexsort(node)]) == 3
    _assert_only_in(_uses_lexsort, {("graph.py", "_row_order")})


def _splits_on_tab(node) -> bool:
    return (_called_name(node) == "split" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == "\t")


def test_one_tab_separated_reader():
    """Triple and label files share one line format, read by graph.read_tsv."""
    assert _splits_on_tab(ast.parse('line.split("\\t")').body[0].value)
    _assert_only_in(_splits_on_tab, {("graph.py", "read_tsv")})


def _open_modes(node) -> list:
    """The mode arguments of a call open(path, mode) or path.open(mode)."""
    given = node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
    return given + [k.value for k in node.keywords if k.arg == "mode"]


def _opens_text(node) -> bool:
    """A call that may open a file as text: read_text(), or open() or path.open()
    with no mode, a mode without b, or a mode that is not a constant."""
    if _called_name(node) == "read_text":
        return True
    if _called_name(node) != "open":
        return False
    modes = _open_modes(node)
    return not modes or any(not isinstance(m, ast.Constant) or "b" not in str(m.value)
                            for m in modes)


def test_text_inputs_opened_only_by_text_lines():
    """Triple, label, config and number files are decoded by one reader, so a
    second UTF-8 reader cannot drop the BOM, the newline rules or the line of a
    bad byte."""
    detected = ('open(p)\nopen(p, "r", encoding="utf-8")\np.open()\np.read_text()\n'
                'open(p, mode=m)\np.open("rt")')
    assert [node.lineno for node in ast.walk(ast.parse(detected)) if _opens_text(node)] == [
        1, 2, 3, 4, 5, 6]
    binary = 'open(p, "rb")\np.open("rb")\np.read_bytes()\nopen(p, mode="xb")'
    assert not [node for node in ast.walk(ast.parse(binary)) if _opens_text(node)]
    _assert_only_in(_opens_text, {("graph.py", "text_lines")})


def _dumps_json(node) -> bool:
    # An imported dumps would hide later calls from the name check, so it counts as a use.
    return _called_name(node) == "dumps" or (isinstance(node, ast.alias) and node.name == "dumps")


def test_one_printer_for_subcommand_results():
    """Every subcommand prints its --json document and its text through cli._emit."""
    assert _dumps_json(ast.parse("json.dumps(report, sort_keys=True)").body[0].value)
    assert _dumps_json(ast.parse("from json import dumps").body[0].names[0])
    _assert_only_in(_dumps_json, {("cli.py", "_emit"), ("experiment.py", "report_to_json")})


def _adds_converting_flag(node) -> bool:
    return _called_name(node) == "add_argument" and any(
        k.arg in ("type", "choices") for k in node.keywords)


def test_one_parser_for_training_options():
    """cli adds each TrainConfig flag as a plain string, and config parses its text
    as it parses a config file's value."""
    assert _adds_converting_flag(ast.parse('p.add_argument("--k", type=int)').body[0].value)
    converting = {scope for scope, _ in _scopes(SRC / "cli.py", _adds_converting_flag)}
    adding = {scope for scope, _ in _scopes(SRC / "cli.py",
                                            lambda node: _called_name(node) == "add_argument")}
    assert "_train_override_flags" in adding - converting
    assert "_build_parser" in converting  # the detector still finds the other flags' types


def _checks_norms(node) -> bool:
    # An alias would hide later calls from the name check, so it counts as a use.
    return _called_name(node) == "_checked_norms" or (
        isinstance(node, ast.alias) and node.name == "_checked_norms" and node.asname is not None
    )


def test_one_alignment_kernel():
    """contrastive_loss and the training step share losses._alignment, bit for bit."""
    assert _checks_norms(ast.parse("_checked_norms(p, 'positive')").body[0].value)
    _assert_only_in(_checks_norms, {("losses.py", "_alignment")})


def test_loss_and_ranking_name_no_scorer():
    members = {kind.name for kind in ScorerKind}
    for name in ("losses.py", "evaluation.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        named = [(node.lineno, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in members]
        assert not named, f"{name} names scorer kinds: {named}"


def _ufunc_at_calls(source: str) -> list[int]:
    """Lines calling .at() on anything, as in np.add.at(table, rows, values)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at"]


def test_no_ufunc_at_in_src():
    assert _ufunc_at_calls("np.add.at(table, rows, values)") == [1]  # the detector works
    for path in sorted(SRC.glob("*.py")):
        lines = _ufunc_at_calls(path.read_text(encoding="utf-8"))
        assert not lines, f"{path.name}:{lines}: ufunc.at scatter; use losses._ordered_sum"


def test_training_step_groups_ids_without_sorting():
    """Ids below a table's row count are grouped by graph._distinct, a counting pass;
    np.unique sorts them, and took three times as long on a batch's slot ids."""
    def unique_calls(source: str) -> list[int]:
        return [node.lineno for node in ast.walk(ast.parse(source))
                if _called_name(node) == "unique"]

    assert unique_calls("np.unique(ids, return_inverse=True)") == [1]  # the detector works
    lines = unique_calls((SRC / "losses.py").read_text(encoding="utf-8"))
    assert not lines, f"losses.py:{lines}: np.unique sorts; group ids with graph._distinct"


def _draw_loops(source: str) -> list[list[str]]:
    """For each draw_epoch call in train(), the targets of the for loops around it,
    outermost first."""
    found = []

    def visit(node, loops):
        if isinstance(node, ast.For):
            loops = loops + [ast.unparse(node.target)]
        if _called_name(node) == "draw_epoch":
            found.append(loops)
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    tree = ast.parse(source)
    visit(next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "train"), [])
    return found


def test_positives_drawn_once_per_epoch_not_per_batch():
    """At FB15k-237 density a per-batch draw hashed every target of every batch
    anchor's row, 210-263 ms a batch; train() draws each epoch's rows once."""
    per_batch = ("def train():\n for epoch in epochs:\n  for batch_index, lo in batches:\n"
                 "   drawn = draw_epoch(pos, m, seed, epoch)\n")
    assert _draw_loops(per_batch) == [["epoch", "(batch_index, lo)"]]  # the detector works
    source = (SRC / "training.py").read_text(encoding="utf-8")
    assert _draw_loops(source) == [["epoch"]], "draw positives once per epoch, before its batches"


def _random_imports(source: str) -> list[int]:
    """Lines importing the stdlib random module or a name from it."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "random" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "random")]


def test_no_stdlib_random_in_src():
    """Every stream is NumPy's and derives from the config seed."""
    assert _random_imports("import random\nfrom random import Random") == [1, 2]
    assert _random_imports("from numpy import random\nimport numpy.random") == []
    for path in sorted(SRC.glob("*.py")):
        lines = _random_imports(path.read_text(encoding="utf-8"))
        assert not lines, f"{path.name}:{lines}: stdlib random; derive a NumPy stream from the seed"


FRAME_MODULES = {"struct", "zlib"}


def _file_writes(source: str) -> list[int]:
    """Lines that open a file in a write mode, call write_bytes or write_text,
    or import struct or zlib, the frame's packing and checksum."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if _called_name(node) in ("write_bytes", "write_text"):
            lines.append(node.lineno)
        elif _called_name(node) == "open":
            # A mode that is not a constant may write, and so may any mode
            # holding w, a, x or +.
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in _open_modes(node)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and {a.name for a in node.names} & FRAME_MODULES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in FRAME_MODULES:
            lines.append(node.lineno)
    return sorted(lines)


def test_files_written_only_by_artifact():
    """Every artifact gets the same frame and the same atomic replacement."""
    detected = ('open(p, "wb")\nopen(p, mode=m)\np.open("a")\np.write_text(s)\n'
                'p.write_bytes(b)\nimport zlib\nfrom struct import pack\n')
    assert _file_writes(detected) == [1, 2, 3, 4, 5, 6, 7]
    assert _file_writes('open(p)\nopen(p, "rb")\np.open("r", encoding="utf-8")') == []
    for path in sorted(SRC.glob("*.py")):
        lines = _file_writes(path.read_text(encoding="utf-8"))
        if path.name == "artifact.py":
            assert lines  # the detector still finds the writer's own uses
        else:
            assert not lines, f"{path.name}:{lines}: write files through symkge.artifact"


# Where np.empty, np.zeros and np.full take their dtype positionally.
DTYPE_ARG = {"empty": 1, "zeros": 1, "full": 2}


def _unnamed_dtypes(source: str) -> list[int]:
    """Lines calling np.empty, np.zeros or np.full without a dtype."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and getattr(node.func.value, "id", None) == "np" and node.func.attr in DTYPE_ARG
            and len(node.args) <= DTYPE_ARG[node.func.attr]
            and not any(k.arg == "dtype" for k in node.keywords)]


def test_training_allocations_name_their_dtype():
    """Scatter slots and loss accumulators are float64 on purpose; the rest take
    the table's dtype. NumPy's default would widen float32 state unnoticed."""
    detected = ("np.empty(3)\nnp.zeros((2, 3))\nnp.full(3, 1.0)\n"
                "np.empty(3, np.float32)\nnp.zeros(3, dtype=t.dtype)\nnp.full(3, 0, np.int64)")
    assert _unnamed_dtypes(detected) == [1, 2, 3]
    for name in ("losses.py", "training.py"):
        lines = _unnamed_dtypes((SRC / name).read_text(encoding="utf-8"))
        assert not lines, f"{name}:{lines}: name the dtype of the allocation"


def test_every_export_resolves_once():
    """A name left in __all__ after its definition moved out would fail only on
    `from symkge import *`."""
    assert len(symkge.__all__) == len(set(symkge.__all__))
    missing = [name for name in symkge.__all__ if not hasattr(symkge, name)]
    assert not missing, f"symkge.__all__ names what the package lacks: {missing}"


def _library_section() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_section_lists_the_exports():
    section = _library_section()
    imported = re.search(r"from symkge import \((.*?)\)", section, re.DOTALL).group(1)
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert names and set(names) <= set(symkge.__all__), names
    listed = re.findall(r"^ *- `(\w+)`:", section, re.MULTILINE)
    assert sorted(listed) == sorted(symkge.__all__)


# Views that only the benchmark and the tests call. Moving them out of the package
# stays a pure move while no module of the package uses them.
BENCH_VIEWS = {"task_loss", "filtered_rank", "init_embeddings"}
# cfg.task_loss is the config field, read as an attribute and never called.
READ_VIEWS = {"filtered_rank", "init_embeddings", "targets"}


def _uses_bench_view(node) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in BENCH_VIEWS
    if isinstance(node, ast.Attribute):
        return node.attr in READ_VIEWS and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Name):
        return node.id in BENCH_VIEWS and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.alias) and node.name in BENCH_VIEWS


def test_package_uses_no_benchmark_view():
    detected = ("from .losses import task_loss\nfilter = filtered_rank\n"
                "model.init_embeddings(2, 1, 3, 0)\nlosses.task_loss(t, s, n, c)\n"
                "pos.targets\nevaluation.filtered_rank")
    found = [node.lineno for node in ast.walk(ast.parse(detected)) if _uses_bench_view(node)]
    assert sorted(set(found)) == [1, 2, 3, 4, 5, 6]
    not_views = ("if cfg.task_loss == MARGIN_RANKING:\n    pass\n"
                 "task_loss: str = ''\ndef task_loss(table):\n    pass\n")
    assert not [node for node in ast.walk(ast.parse(not_views)) if _uses_bench_view(node)]
    _assert_only_in(_uses_bench_view, set())


def test_bench_span_targets_resolve():
    """Every name the benchmark wraps by name still exists in the program."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    with spans.tracing() as tracer:
        assert tracer.missing == []
