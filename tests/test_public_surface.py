"""Every public symbol has a user in the program, or a stated reason to exist."""

import ast
import importlib
import pathlib

from spusim import device, langevin, linalg

ROOT = pathlib.Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "spusim" / "__init__.py"

# Exported names that nothing in the package, the demos or the benchmark
# names, each kept as a capability of the device or of the paper's method.
# A name used only inside the definition of one of these counts as unused.
ALLOWED_UNREFERENCED = {
    "build_maxwell": "the paper's Maxwell matrix from cell and coupling capacitances",
    "lfsr_step": "one clock of the 16-bit LFSR that the noise chain is built from",
    "preprocess_non_psd": "the remedy that the not-positive-definite error names",
    "stationary_state_covariance": "the exact law where the Gibbs formula fails "
                                   "(non-uniform R kappa0)",
    "stationary_voltage_covariance": "the equilibrium law every sampling run targets",
}


def exported_names():
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def definitions(tree):
    """Line spans (first, last) of the top-level definitions of a module, by name."""
    spans = {}
    for node in tree.body:
        defined = getattr(node, "name", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = next((t.id for t in targets if isinstance(t, ast.Name)), None)
        if defined is not None:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans[defined] = (first, node.end_lineno)
    return spans


def program_trees():
    """``(path, AST)`` of every module of the package, the demos and the benchmark."""
    for folder in ("src/spusim", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def references(tree) -> list[tuple[str, int]]:
    """``(name, line)`` of every name a module's code reads or binds, as a
    plain name or as an attribute: strings and comments do not count."""
    return [(node.id, node.lineno) if isinstance(node, ast.Name) else (node.attr, node.lineno)
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_export_is_referenced_or_allowed():
    modules = [(references(tree), definitions(tree))
               for path, tree in program_trees() if path != INIT]
    assert modules

    def referenced(name):
        """Named outside its own definition and those of the allowlisted exports."""
        for refs, spans in modules:
            skipped = [spans[n] for n in {name, *ALLOWED_UNREFERENCED} if n in spans]
            if any(ref == name and not any(first <= line <= last for first, last in skipped)
                   for ref, line in refs):
                return True
        return False

    unreferenced = {name for name in exported_names() if not referenced(name)}
    assert unreferenced <= set(ALLOWED_UNREFERENCED), (
        "exported but named nowhere outside its definition: "
        f"{sorted(unreferenced - set(ALLOWED_UNREFERENCED))}")
    # an allowlist entry that gains a user, or leaves the exports, goes
    assert set(ALLOWED_UNREFERENCED) <= unreferenced


# Public members of public classes that nothing in the package, the demos or
# the benchmark reads, each kept for a stated reason.
ALLOWED_UNREAD_MEMBERS = {
    "circuit.CouplingConfig.none": "the acceptance tests build their uncoupled boards with it",
    "noise.ChainNoiseSource.increments":
        "the benchmark's tracer wraps it by name; it moves into the tests with the tracer",
}


def public_members():
    """``(name, def)`` of every public method, property and classmethod of a
    public class of the package, named ``module.Class.member``."""
    for path in sorted((ROOT / "src" / "spusim").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}", member


def test_every_public_member_is_read_or_allowed():
    modules = [(path, references(tree)) for path, tree in program_trees()]
    unread = set()
    for qualname, member in public_members():
        path = ROOT / "src" / "spusim" / f"{qualname.split('.')[0]}.py"
        first = min([member.lineno] + [d.lineno for d in member.decorator_list])
        own = range(first, member.end_lineno + 1)
        if not any(ref == member.name and not (where == path and line in own)
                   for where, refs in modules for ref, line in refs):
            unread.add(qualname)
    assert unread <= set(ALLOWED_UNREAD_MEMBERS), (
        "public members that nothing in the program reads: "
        f"{sorted(unread - set(ALLOWED_UNREAD_MEMBERS))}")
    # an allowlist entry that gains a reader, or whose member goes, goes
    assert set(ALLOWED_UNREAD_MEMBERS) <= unread


def test_every_traced_target_resolves():
    """Each ``(module, qualname)`` that the benchmark's tracer wraps names a
    function of the module or a member defined on its class, as
    ``perfbench/tracing.py``'s ``install`` reads them."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    listed = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    targets = [(entry.elts[1].value, entry.elts[2].value) for entry in listed.elts]
    assert len(targets) > 20
    for module_name, qualname in targets:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in vars(owner), f"{module_name}.{qualname} is not defined"
    # install rebinds a function wherever the package holds it by name, and
    # the benchmark's self-test checks these two
    assert linalg.integrate_circuit is langevin.integrate_circuit
    assert device.integrate_circuit is langevin.integrate_circuit


# Defaulted parameters that no call in the package, the demos or the
# benchmark sets, each kept for a check that a test makes with another value.
ALLOWED_UNSET = {
    "langevin.stationary_voltage_covariance(method)":
        "selects the Lyapunov reference the tests compare the Gibbs formula with",
    "linalg.invert_matrix(backend)": "the digital exact-draw oracle of the inversion tests",
    "device.SpuEmulator.nominal_params(coupling)":
        "the per-record board the fault-scan oracle test compares with",
    "noise.NoiseChainConfig.matched(rc_bits)": "the RC corner that the chain-law tests vary",
    "noise.rc_filter(initial)": "its carried state is checked against scipy's lfilter",
}


def public_callables():
    """``(name, def)`` of every public function, public method and constructor
    of the package, named ``module.function`` or ``module.Class.method``."""
    for path in sorted((ROOT / "src" / "spusim").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and (
                            member.name == "__init__" or not member.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{member.name}", member


def defaulted_parameters(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def program_calls() -> dict[str, list[ast.Call]]:
    """Every call in the package, the demos and the benchmark, by called name."""
    calls = {}
    for _, tree in program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                calls.setdefault(name, []).append(node)
    return calls


def test_every_default_is_set_by_the_program_or_allowed():
    calls = program_calls()
    unset = set()
    for qualname, fn in public_callables():
        parts = qualname.split(".")
        # a constructor is called by its class's name
        called = parts[-2] if parts[-1] == "__init__" else parts[-1]
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if len(parts) == 3 and positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        for param in defaulted_parameters(fn):
            index = positional.index(param) if param in positional else None
            if not any(any(k.arg == param for k in call.keywords)
                       or (index is not None and len(call.args) > index
                           and not any(isinstance(a, ast.Starred) for a in call.args[:index + 1]))
                       for call in calls.get(called, [])):
                unset.add(f"{qualname}({param})")
    assert unset <= set(ALLOWED_UNSET), (
        "defaulted parameters that nothing in the program sets: "
        f"{sorted(unset - set(ALLOWED_UNSET))}")
    # an allowlist entry that gains a caller, or whose parameter goes, goes
    assert set(ALLOWED_UNSET) <= unset


# Private names that one module of the package imports from another, each
# shared for a stated reason; any other private name stays in its module.
ALLOWED_PRIVATE_IMPORTS = {
    "apps <- compiler._validate_symmetric":
        "the digital inverter refuses a kernel matrix as the compiler refuses a target",
    "apps <- compiler._validate_pd":
        "the digital inverter refuses an indefinite kernel matrix as the compiler does",
    "linalg <- langevin._check_noise":
        "a bad noise setting is refused before the target is compiled",
    "linalg <- langevin._voltage_records":
        "the inversion streams a run's records into its prefix covariances",
    "linalg <- langevin._refuse_chain_rate":
        "a chain run refuses the rate a plan asks for before the plan thins it",
    "linalg <- langevin._refuse_off_grid":
        "a rate study refuses a rate off its grid as a chain refuses one off its bits",
    "calibration <- langevin._moving_cells":
        "the fault scan skips a run whose probe the stepping rule leaves at rest",
    "cli <- langevin._chain_source":
        "the exported noise stream is read from the source the run itself builds",
}


def private_imports():
    """``importer <- module.name`` of every private name (one underscore, not
    a dunder) that a module of the package imports from another, at any
    depth of its code."""
    for path in sorted((ROOT / "src" / "spusim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        yield f"{path.stem} <- {node.module}.{alias.name}"


def test_every_private_import_is_allowed():
    imported = set(private_imports())
    assert imported <= set(ALLOWED_PRIVATE_IMPORTS), (
        f"private names imported across modules: {sorted(imported - set(ALLOWED_PRIVATE_IMPORTS))}")
    # an allowlist entry whose import goes, goes
    assert set(ALLOWED_PRIVATE_IMPORTS) <= imported
