"""The benchmark's own interpreter: it imports ``specincl`` and calls its CLI.

Started by ``run.py`` in one of two modes:

    python3 bench/child.py --mode setup --root ROOT --result FILE -- CLI-ARGS...
    python3 bench/child.py --mode measure --root ROOT --result FILE --work DIR
                           --until NS [--min-reps K] [--trace] -- CLI-ARGS...

Both import ``specincl`` from ``ROOT/src`` and refuse any other copy.

``setup`` calls ``specincl.cli.main(CLI-ARGS)`` and stops it as soon as the
CLI's input loader returns, before any sweep.  FILE gets ``input_loaded_ns``,
the ``CLOCK_MONOTONIC`` time of that moment; ``run.py`` subtracts the time it
started the process from it to get the set-up time (interpreter start,
``specincl`` import and input load).

``measure`` calls ``specincl.cli.main(CLI-ARGS --out-dir DIR/rep_<i>)`` once
to warm up (lazy imports, allocator), records the process's peak resident
set size, then repeats the call back to back until ``CLOCK_MONOTONIC``
reaches NS (and at least K times, 2 by default), so that one process
generates the whole load.  Each repetition
keeps its outputs and its standard output (``DIR/rep_<i>.stdout``) for
``run.py`` to check.  FILE gets one record per repetition (return code, wall
and CPU seconds, whether it was traced, and its spans) and ``peak_rss_mb``.
With ``--trace`` the timed repetitions alternate untraced and traced.

Tracing is outside-in: wrappers replace public functions on the module object
through which the caller looks them up, and are taken out again after each
traced repetition.  A wrapper on the defining module would not fire where
another module imported the name (``cli`` imports ``verify_containment`` from
``corpus``, for example).  A traced repetition's spans are
``[name, start_ns, end_ns, parent, attrs]`` rows, ``parent`` being the index
of the enclosing span or -1; they are kept in memory and written once.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import sys
import time

import numpy as np


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder for single-threaded call trees.

    Every traced function is called from the interpreter's main thread (the
    CLI's own worker threads run below ``smin_grid``), so one stack suffices.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.

        ``attrs(args, kwargs, result)`` may return a small JSON-able value
        kept with the span, such as the shape of the work done.
        """
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = _now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now_ns()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def remove(self) -> list[list]:
        """Put every wrapped function back and hand over the spans."""
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        spans, self.spans = self.spans, []
        return spans


def _smin_shape(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return [int(rows), int(cols), int(np.size(result))]


def _file_size(args, kwargs, result):
    return os.path.getsize(args[1])


def _text_length(args, kwargs, result):
    return len(result)


def _vertex_count(args, kwargs, result):
    return sum(len(loop) for loop in result)


def _check_summary(args, kwargs, result):
    return [len(result), sum(1 for r in result if not r.contained)]


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public functions each layer's callers reach."""
    from specincl import cli, corpus, inclusion, penalty, toeplitz, viz
    from specincl import pseudospec as ps

    w = tracer.wrap
    # pseudospec: callers reach these through the ``ps`` module object
    w(ps, "smin_grid", "pseudospec.smin_grid", _smin_shape)
    w(ps, "pseudospectrum", "pseudospec.pseudospectrum")
    w(ps, "hausdorff", "pseudospec.hausdorff")
    w(ps, "eig", "pseudospec.eig")
    w(ps, "region_to_csv", "pseudospec.region_to_csv", _file_size)
    w(viz, "contour_extract", "pseudospec.contour_extract", _vertex_count)
    # names the CLI imported into its own namespace
    w(cli, "render_svg", "viz.render_svg", _text_length)
    w(cli, "build_corpus", "corpus.build_corpus")
    w(cli, "verify_containment", "corpus.verify_containment", _check_summary)
    w(cli, "load_matrix", "ingest.load_matrix")
    w(cli, "convergence_study", "toeplitz.convergence_study")
    for mod in (cli, corpus, toeplitz):
        w(mod, "make_view", "matrixcore.make_view")
    # inclusion: the method assemblers and the truncation families they build
    for fn in ("sigma_tau", "pi_method", "tau1_method", "penalty_params"):
        w(inclusion, fn, f"inclusion.{fn}")
    for fn in ("submatrix_tau", "submatrix_pi", "submatrix_tau1",
               "embedding_selector"):
        w(inclusion, fn, f"matrixcore.{fn}")
    w(inclusion.MethodReport, "to_json", "inclusion.MethodReport.to_json",
      _text_length)
    w(toeplitz.StudyResult, "to_csv", "toeplitz.StudyResult.to_csv",
      _text_length)
    w(penalty, "solve_theta", "penalty.solve_theta")


class InputLoaded(BaseException):
    """Raised through ``cli.main`` once its input is loaded (``setup`` mode).

    A ``BaseException``, so that none of the CLI's error handlers catch it.
    """


def stop_when_input_loaded() -> None:
    """Make the CLI stop when its input loader first returns.

    Each workload loads its input through exactly one of these names.
    """
    from specincl import cli

    for attr in ("load_matrix", "jordan", "jordan_symbol", "build_corpus"):
        fn = getattr(cli, attr)

        def marked(*args, _fn=fn, **kwargs):
            _fn(*args, **kwargs)
            raise InputLoaded(_now_ns())

        setattr(cli, attr, marked)


def setup(cli, cli_args: list[str]) -> dict:
    stop_when_input_loaded()
    try:
        cli.main(cli_args)
    except InputLoaded as done:
        return {"input_loaded_ns": done.args[0]}
    return {"input_loaded_ns": None}


def one_rep(cli, cli_args: list[str], work: str, index: int,
            tracer: Tracer | None) -> dict:
    out = os.path.join(work, f"rep_{index}")
    stdout = io.StringIO()
    if tracer is not None:
        install_tracing(tracer)
        tracer.wrap(cli, "main", "cli.main")
    with contextlib.redirect_stdout(stdout):
        cpu0 = time.process_time()
        t0 = _now_ns()
        rc = cli.main(cli_args + ["--out-dir", out])
        t1 = _now_ns()
        cpu1 = time.process_time()
    with open(out + ".stdout", "w", encoding="utf-8") as fh:
        fh.write(stdout.getvalue())
    return {"out": out, "rc": rc, "wall_s": (t1 - t0) / 1e9,
            "cpu_s": cpu1 - cpu0, "traced": tracer is not None,
            "spans": tracer.remove() if tracer is not None else []}


def measure(cli, cli_args: list[str], work: str, until_ns: int,
            min_reps: int, trace: bool) -> dict:
    reps = [one_rep(cli, cli_args, work, 0, None)]
    reps[0]["warmup"] = True
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed: list[float] = []
    # at least ``min_reps``; then stop before the repetition that would
    # probably end after the deadline, or after a failed one
    while reps[-1]["rc"] == 0 and (len(timed) < min_reps or (
            timed and _now_ns() + 1e9 * sorted(timed)[len(timed) // 2]
            < until_ns)):
        rep = one_rep(cli, cli_args, work, len(reps),
                      Tracer() if trace and len(timed) % 2 else None)
        reps.append(rep)
        timed.append(rep["wall_s"])
    return {"peak_rss_mb": peak_rss_mb, "reps": reps}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--work")
    parser.add_argument("--until", type=int, help="CLOCK_MONOTONIC ns")
    parser.add_argument("--min-reps", type=int, default=2,
                        help="timed repetitions made even past --until")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import specincl
    from specincl import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(specincl.__file__))) != src:
        print(f"child: imported specincl from {specincl.__file__}, not {src}",
              file=sys.stderr)
        return 2

    if args.mode == "setup":
        result = setup(cli, cli_args)
    else:
        result = measure(cli, cli_args, args.work, args.until,
                         args.min_reps, args.trace)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
