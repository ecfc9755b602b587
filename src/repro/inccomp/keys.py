"""Content addresses for per-function compilation.

A function's optimized body is determined by exactly four inputs, and the
key is a SHA-256 over all of them:

1. **The function itself, after interprocedural analysis.**  The printed
   post-analysis IR embeds every interprocedural fact the optimizer will
   consume: pointer-op tag sets carry the points-to fragments, and every
   call site prints its callee's MOD/REF summary (``mod=... ref=...``).
   This is what makes invalidation propagate *upward automatically*: when
   an edit changes a callee's MOD/REF summary, every transitive caller's
   call sites print differently, so their keys change — while an edit
   that leaves the summary intact leaves all callers cached.  A few
   semantically relevant fields do not print (frame-slot sizes, call
   site ids, the fresh-register counter); :func:`function_digest` folds
   them in explicitly.
2. **The module data environment** (:func:`module_env_digest`): globals
   with initializers, string literals, heap site tags, the address-taken
   set, addressed functions, and every function's local-tag attributes —
   the universe register promotion materializes ambiguity against.
3. **The pipeline options**, via the same canonical JSON encoding the
   cell cache uses.
4. **The compiler's own source fingerprint**, so editing any pass
   invalidates every cached body.

Compilations running under a decision ledger additionally key on
``ledgered=True``: they observe (and must replay) per-pass decisions, so
they get their own namespace rather than polluting plain compiles.
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import Call
from ..ir.module import Module
from ..ir.printer import format_function
from ..store import canonical_json, content_key, jsonable, sha256_hex

__all__ = [
    "FN_SCHEMA_VERSION",
    "function_digest",
    "function_key",
    "module_env_digest",
    "options_digest",
]

#: bump when the stored :class:`~repro.inccomp.store.FunctionRecord`
#: payload or the meaning of any key component changes
FN_SCHEMA_VERSION = 1


def _tag_attrs(tag) -> list:
    return [tag.name, tag.kind.value, tag.is_scalar, tag.owner]


def options_digest(options) -> str:
    """Canonical digest of a :class:`~repro.pipeline.PipelineOptions`."""
    return sha256_hex(canonical_json(jsonable(options)))


def module_env_digest(module: Module) -> str:
    """Digest of everything outside function bodies that optimization of
    any single function may observe.

    Computed on the *post-analysis* module so lazily materialized heap
    tags are included.  Deliberately excludes the module name: identical
    functions in identically shaped programs share cache entries.
    """
    env = {
        "globals": [
            [
                var.name,
                var.tag.kind.value,
                var.tag.is_scalar,
                var.size,
                var.elem_size,
                sorted((str(k), v) for k, v in var.init.items()),
                var.is_const,
            ]
            for var in sorted(module.globals.values(), key=lambda v: v.name)
        ],
        "strings": sorted(
            [lit.tag.name, lit.text] for lit in module.strings.values()
        ),
        "heap": sorted(
            [site, _tag_attrs(tag)] for site, tag in module.heap_tags.items()
        ),
        "address_taken": sorted(t.name for t in module.address_taken),
        "addressed_functions": sorted(module.addressed_functions),
        "locals": [
            [func.name, [_tag_attrs(t) for t in func.local_tags]]
            for func in sorted(module.functions.values(), key=lambda f: f.name)
        ],
    }
    return sha256_hex(canonical_json(env))


def function_digest(func: Function) -> str:
    """Digest of one function's post-analysis form.

    The printed IR carries the instruction stream, tag sets, and call
    MOD/REF summaries; the supplement covers fields the printer omits
    but that change either the optimizer's output (fresh-name counters)
    or the produced body's runtime meaning (frame sizes, heap site ids).
    """
    supplement = {
        "local_tag_sizes": sorted(func.local_tag_sizes.items()),
        "local_tag_attrs": [_tag_attrs(t) for t in func.local_tags],
        "site_ids": [
            instr.site_id
            for instr in func.instructions()
            if isinstance(instr, Call)
        ],
        "next_vreg": func._next_vreg,
        "next_label": func._next_label,
    }
    return sha256_hex(format_function(func) + "\0" + canonical_json(supplement))


def function_key(
    fn_digest: str,
    env_digest: str,
    opts_digest: str,
    ledgered: bool,
) -> str:
    """The content address of one function's optimized body."""
    return content_key(
        FN_SCHEMA_VERSION,
        fn=fn_digest,
        env=env_digest,
        options=opts_digest,
        ledgered=ledgered,
    )
