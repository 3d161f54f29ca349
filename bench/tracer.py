"""Tracing bootstrap: run one `vif` stage with spans around every layer call.

Usage: python3 bench/tracer.py SPANS.json vif-arguments...

The bootstrap imports vifkit, replaces each traced public function or method
with a timing wrapper, then calls `vifkit.cli.main` with the remaining
arguments and exits with its return code.  Spans stay in memory and are
written to SPANS.json when the stage ends, as a list of
[name_id, start_s, end_s, parent_index] rows (parent -1 for roots).

A function is replaced wherever a module holds a reference to it, because
`from .numkit import solve_spd` binds its own name in `attributor`, `losscore`
and `coxloss`.  Methods are replaced on the class that is looked up, so the
`delta_gradient` that `EmbedModel` inherits from `LossModel` is traced as
`embedloss.delta_gradient` and no other model's call is counted under it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name).  Dotted attributes are methods.
TRACED = (
    ("vifkit.cli", "build_model", "cli.build_model"),
    ("vifkit.cli", "_write_records_csv", "cli.csv_write"),
    ("vifkit.losscore", "train", "losscore.train"),
    ("vifkit.coxloss", "CoxModel.gradient", "coxloss.gradient"),
    ("vifkit.coxloss", "CoxModel.hessian", "coxloss.hessian"),
    ("vifkit.coxloss", "CoxModel.delta_gradient", "coxloss.delta_gradient"),
    ("vifkit.coxloss", "CoxModel.per_term_hvp", "coxloss.per_term_hvp"),
    ("vifkit.ltrloss", "ListMLEModel.gradient", "ltrloss.gradient"),
    ("vifkit.ltrloss", "ListMLEModel.hessian", "ltrloss.hessian"),
    ("vifkit.ltrloss", "ListMLEModel.delta_gradient", "ltrloss.delta_gradient"),
    ("vifkit.ltrloss", "ListMLEModel.term_gradient_sum", "ltrloss.term_gradient_sum"),
    ("vifkit.embedloss", "generate_walks", "embedloss.generate_walks"),
    ("vifkit.embedloss", "walks_to_pairs", "embedloss.walks_to_pairs"),
    ("vifkit.embedloss", "EmbedModel.pair_counts", "embedloss.pair_counts"),
    ("vifkit.embedloss", "EmbedModel.gradient", "embedloss.gradient"),
    ("vifkit.embedloss", "EmbedModel.hessian", "embedloss.hessian"),
    ("vifkit.embedloss", "EmbedModel.delta_gradient", "embedloss.delta_gradient"),
    ("vifkit.numkit", "solve_spd", "numkit.solve_spd"),
    ("vifkit.numkit", "cg_solve", "numkit.cg_solve"),
    ("vifkit.numkit", "lissa_solve", "numkit.lissa_solve"),
    # solve_spd reaches the LU path only when the Cholesky factorization fails
    ("scipy.linalg", "lu_factor", "numkit.lu_fallback"),
    ("vifkit.attributor", "attribute_target", "attributor.attribute_target"),
    ("vifkit.attributor", "HessianContext.__init__", "attributor.context"),
    ("vifkit.attributor", "HessianContext._assemble", "attributor.assemble"),
    ("vifkit.harness", "loo_retrain", "harness.loo_retrain"),
    ("vifkit.harness", "_loo_one", "harness.loo_one"),
    ("vifkit.harness", "compare", "harness.compare"),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.converged = 0

    def wrap(self, name: str, fn, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every TRACED target that exists; return the missing ones."""
        missing = []
        for mod_name, attr, span in TRACED:
            module = importlib.import_module(mod_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, member, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            hook = self._count_converged if span == "harness.loo_one" else None
            wrapped = self.wrap(span, original, hook)
            if owner_name:
                setattr(owner, member, wrapped)
            else:
                self._rebind(original, wrapped, module)
        return missing

    @staticmethod
    def _rebind(original, wrapped, home):
        setattr(home, original.__name__, wrapped)
        for name, module in list(sys.modules.items()):
            if not name.startswith("vifkit") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def _count_converged(self, result):
        self.converged += bool(result.converged)

    def dump(self, path: str, missing: list[str], exit_code: int):
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "missing": missing,
                    "loo_converged": self.converged,
                    "exit_code": exit_code,
                },
                fh,
            )


def main(argv: list[str]) -> int:
    out_path, vif_args = argv[0], argv[1:]
    import vifkit.cli

    tracer = Tracer()
    missing = tracer.install()
    run = tracer.wrap("cli.main", vifkit.cli.main)
    code = 1
    try:
        code = run(vif_args)
    finally:
        tracer.dump(out_path, missing, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
