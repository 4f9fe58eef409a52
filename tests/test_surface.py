"""The library surface is what the experiments reach: every public module-level
function and class of the package, and every public method and property of
its classes, is referenced by name from the package's own code, every
defaulted parameter is set by some call in it, and no module imports a name
it does not use.  The rule that deepens a tail verdict lives
in tail.read_tail alone, and tail.py alone classifies a tail or builds a
Reading.

Names are read from the syntax tree, so a reference is any plain name or
attribute name outside the definition itself; ``__init__.py`` re-exports do
not count as uses.  Each experiment's command line offers a flag for a spec
field only where its runner reads that field.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qchardy"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# public names that no experiment reaches, each with the reason it stays; a
# method or property is keyed Class.name
ALLOWED = {
    "DiscQCMap.differential": "the benchmark tracer wraps it to time the "
                              "differential layer; the package reads jets",
    "DiscPushforward.measure_ball": "one-ball view of _masses that the "
                                    "benchmark tracer wraps and the ball "
                                    "tests call; sweeps read _masses",
    "QuasiregularMap.differential": "the chain-rule reference that tests "
                                    "hold functionals._deriv_magnitude to",
    "ProxyResult.bounded": "verdict of the radial proxy that frozen "
                           "acceptance test 02 calls",
    "kernel_ratio": "float view of the kernel Carleson test's terms that "
                    "acceptance test 03 calls; thm1 reads the terms with "
                    "their errors through kernel_carleson",
    "operator_bound_proxy": "radial Hardy-norm proxy that acceptance test 02 "
                            "and TestOperatorProxy call; thm1 decides with its "
                            "boundary limit, kernel_carleson",
    "boundary_lp_norm": "float view of boundary_lp that acceptance tests 01 "
                        "and 07 call; thm2 and thm3 read the norm with its "
                        "verdict and reason through boundary_lp",
    "average_derivative": "Monte Carlo view that frozen acceptance test 06 "
                          "and the benchmark tracer call; delete it with "
                          "ball_sample, mc_samples and --seed once the "
                          "benchmark stops passing --seed",
    "integral_mean": "one-circle mean that frozen acceptance tests 05 and "
                     "07 and the benchmark's tests call; the experiments "
                     "read circle means from hardy_norm's schedule",
    "is_lipschitz_inverse": "boolean view of lipschitz_tail that acceptance "
                            "tests 02 and 10 call; the experiments read the "
                            "deepened verdict from lipschitz_reading",
}

# defaulted parameters that no call in the package sets, each with the reason
# it stays
ALLOWED_PARAMETERS = {
    "operator_bound_proxy.k_max": "acceptance test 02 and TestOperatorProxy "
                                  "set the number of kernels",
    "average_derivative.mc_samples": "frozen acceptance test 06 sets the "
                                     "sample count, which the benchmark "
                                     "tracer reads",
    "average_derivative.seed": "frozen acceptance test 06 seeds the sampler",
    "main.argv": "the console script reads sys.argv; tests pass their own",
    "radial_schedule.k_max": "acceptance test 05 and the area and extension "
                             "tests build schedules of their own depth; "
                             "hardy_norm reads the default, RADIAL_DEPTH",
}


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}


def _names(node, attributes=True):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif attributes and isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _occurrences(node):
    """Counter of the plain and attribute names in node."""
    return Counter(getattr(sub, "id", getattr(sub, "attr", None))
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def _public_definitions(tree):
    """(key, name, node) of each public top-level function and class, and
    of each public method and property of a class, keyed Class.name; a
    property is a decorated method or an assignment of property(...)."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, node
        for sub in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(sub, ast.FunctionDef):
                name = sub.name
            elif (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call)
                  and getattr(sub.value.func, "id", None) == "property"):
                name = sub.targets[0].id
            else:
                continue
            if not name.startswith("_"):
                yield f"{node.name}.{name}", name, sub


def test_every_public_definition_is_referenced():
    trees = _trees().values()
    total = sum((_occurrences(tree) for tree in trees), Counter())
    unreferenced = {key for tree in trees
                    for key, name, node in _public_definitions(tree)
                    if total[name] <= _occurrences(node)[name]}
    assert sorted(unreferenced - set(ALLOWED)) == []
    # an allowed name that gains a caller leaves the list
    assert sorted(set(ALLOWED) - unreferenced) == []


def test_no_unused_imports():
    unused = []
    for module, tree in _trees().items():
        used = _names(tree, attributes=False)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def _defaulted(func, method):
    """{name: positional index or None} of func's defaulted parameters; a
    method's index counts from the argument after self."""
    args = func.args
    positional = args.posonlyargs + args.args
    out = {a.arg: i - method
           for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)}
    out.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None)
    return out


def _definitions(tree):
    """(key, function node, defaulted parameters) of each top-level function
    and method; __init__ is keyed by its class, since calls name the class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, _defaulted(node, 0)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    key = node.name if sub.name == "__init__" else sub.name
                    yield key, sub, _defaulted(sub, 1)


def _unset_parameters():
    """'function.parameter' of every defaulted parameter that no call in the
    package sets, by position or keyword.  Passing on a defaulted parameter
    of the calling function that is itself never set does not count; nested
    closures' bound defaults are not parameters of the surface."""
    defaults, settings = {}, []
    for tree in _trees().values():
        for key, func, params in _definitions(tree):
            defaults.setdefault(key, {}).update(params)
            for call in ast.walk(func):
                if isinstance(call, ast.Call):
                    settings.append((key, params, call))
    found = []  # (set parameter, forwarded parameter of the caller or None)
    for caller, caller_params, call in settings:
        callee = getattr(call.func, "id", getattr(call.func, "attr", None))
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        by_name = {k.arg: k.value for k in call.keywords}
        for name, index in defaults.get(callee, {}).items():
            if starred or None in by_name:
                value = None
            elif index is not None and index < len(call.args):
                value = call.args[index]
            elif name in by_name:
                value = by_name[name]
            else:
                continue
            source = (f"{caller}.{value.id}" if isinstance(value, ast.Name)
                      and value.id in caller_params else None)
            found.append((f"{callee}.{name}", source))
    done = set()
    while more := {p for p, source in found
                   if source is None or source in done} - done:
        done |= more
    return {f"{key}.{name}" for key, params in defaults.items()
            for name in params} - done


def test_every_defaulted_parameter_is_set():
    unset = _unset_parameters()
    assert sorted(unset - set(ALLOWED_PARAMETERS)) == []
    # an allowed parameter that gains a setter leaves the list
    assert sorted(set(ALLOWED_PARAMETERS) - unset) == []


def test_only_the_depth_bound_names_the_tail_cap():
    # every deepening loop is tail.read_tail; ExperimentSpec bounds --depth
    named = {(module, getattr(stmt, "name", None))
             for module, tree in _trees().items() if module != "tail.py"
             for stmt in tree.body if "TAIL_CAP" in _names(stmt)}
    assert named == {("cli.py", "ExperimentSpec")}


def test_each_tail_is_read_where_its_terms_are_computed():
    # the report writes the readings these modules return, and reads none
    named = {module for module, tree in _trees().items() if module != "tail.py"
             and {"read_tail", "classify_tail"} & _names(tree)}
    assert named == {"boundary.py", "carleson.py", "functionals.py"}


def test_only_tail_classifies_a_tail_or_builds_a_reading():
    # every verdict is read by tail.read_tail, with its one error rule
    named = set()
    for module, tree in _trees().items():
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        if "classify_tail" in _names(tree) | imported or "Reading" in called:
            named.add(module)
    assert named == {"tail.py"}


def test_each_runner_reads_the_fields_it_declares():
    # the parser offers a flag for each spec field that cli._TABLE declares
    # for an experiment, so the declaration must be the runner's own reads;
    # none declares the map, so no runner reads the map's name
    tree = _trees()["cli.py"]
    runners = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_TABLE")
    for key, entry in zip(table.keys, table.values):
        runner, declared = entry.elts[0].id, ast.literal_eval(entry.elts[3])
        read = {sub.attr for sub in ast.walk(runners[runner])
                if isinstance(sub, ast.Attribute)
                and getattr(sub.value, "id", None) == "spec"}
        assert sorted(read) == sorted(declared), key.value
