"""API-hygiene rules: small, high-signal checks over all of ``src/repro``.

* ``no-mutable-default`` — a ``def f(x=[])`` default is shared across
  calls; with the service's long-lived workers and sessions, such
  sharing is a cross-request state leak, not a style nit.
* ``no-bare-except`` — ``except:`` swallows ``KeyboardInterrupt`` and
  ``SystemExit``, which the daemon relies on for drain/shutdown.
* ``no-assert`` — ``assert`` disappears under ``python -O``; runtime
  validation must raise explicitly so a production invocation fails the
  same way the test suite does.
* ``no-environ-write`` — configuration travels as arguments, never by
  writing ``os.environ``: a library-level write outlives its caller and
  leaks into every later call, test and forked worker (a CLI that set
  ``REPRO_JOBS`` once made later tests fan out over processes).  Only
  ``__main__.py`` entry points, which own their process, may write it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import collect_imports, resolved_call_target, resolved_name
from repro.lint.model import FileContext, Finding
from repro.lint.registry import register

HYGIENE_SCOPES = ("repro",)

#: Expression shapes that create a fresh mutable object per evaluation —
#: which, as a default, means one shared instance for every call.
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)

#: Call-by-name constructors that are mutable for sure.
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CTORS
    return False


@register(
    "no-mutable-default",
    "api-hygiene",
    "no mutable default arguments (shared across calls; use None + "
    "an in-body default)",
    scopes=HYGIENE_SCOPES,
)
def no_mutable_default(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            if _is_mutable_default(default):
                name = getattr(node, "name", "<lambda>")
                yield no_mutable_default.finding(
                    ctx,
                    default,
                    f"mutable default argument in {name!r} is evaluated once "
                    "and shared across calls; default to None and build the "
                    "object in the body",
                )


@register(
    "no-bare-except",
    "api-hygiene",
    "no bare 'except:' — it catches KeyboardInterrupt/SystemExit and "
    "breaks daemon shutdown; name the exception (Exception at minimum)",
    scopes=HYGIENE_SCOPES,
)
def no_bare_except(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield no_bare_except.finding(
                ctx,
                node,
                "bare 'except:' also catches KeyboardInterrupt and "
                "SystemExit; catch Exception (or something narrower)",
            )


@register(
    "no-assert",
    "api-hygiene",
    "no 'assert' for runtime validation in library code — it vanishes "
    "under python -O; raise explicitly",
    scopes=HYGIENE_SCOPES,
)
def no_assert(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assert):
            yield no_assert.finding(
                ctx,
                node,
                "'assert' is stripped under python -O, so this check "
                "silently disappears in optimised runs; raise "
                "ValueError/RuntimeError explicitly",
            )


#: Calls that change the process environment.
_ENVIRON_WRITES = frozenset(
    {
        "os.environ.update",
        "os.environ.setdefault",
        "os.environ.pop",
        "os.environ.popitem",
        "os.environ.clear",
        "os.putenv",
        "os.unsetenv",
    }
)


@register(
    "no-environ-write",
    "api-hygiene",
    "no writes to os.environ (item assignment/deletion, update, "
    "setdefault, pop, clear, os.putenv/unsetenv) outside __main__.py "
    "entry points; pass configuration as arguments",
    scopes=HYGIENE_SCOPES,
)
def no_environ_write(ctx: FileContext) -> Iterator[Finding]:
    if ctx.path.name == "__main__.py":
        return
    origins = collect_imports(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets: list[ast.expr]
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            else:
                targets = [node.target]
            written = any(
                isinstance(t, ast.Subscript)
                and resolved_name(t.value, origins) == "os.environ"
                for t in targets
            )
            what = "os.environ[...]"
        elif isinstance(node, ast.Call):
            target = resolved_call_target(node, origins)
            written = target in _ENVIRON_WRITES
            what = f"{target}()"
        else:
            continue
        if written:
            yield no_environ_write.finding(
                ctx,
                node,
                f"{what} changes the environment of the whole process and "
                "everything it later forks; pass the value as an argument "
                "(only __main__.py entry points may write os.environ)",
            )
