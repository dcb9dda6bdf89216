"""Stage timer for the CLI calls of the traced cli_cold run.

Usage (from the input directory, with the checkout's ``src`` on PYTHONPATH):

    python -X importtime bench/cli_child.py <propval arguments...>

Does what ``python -m propval.cli <arguments>`` does, and times each stage:
the ``import propval.cli``, ``build_parser``, ``parse_args`` and the rest of
``main`` (the handler). The propval functions are wrapped by the span tracer.
The timings go to stderr as one line starting with ``BENCH_CHILD``; the
numpy share of the import comes from the ``-X importtime`` lines.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t0 = time.monotonic()
    import propval.cli as cli

    import_s = time.monotonic() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    spans = {"build_parser": 0.0, "parse_args": 0.0}
    build_parser = cli.build_parser

    def timed_build_parser():
        t = time.perf_counter()
        parser = build_parser()
        spans["build_parser"] += time.perf_counter() - t
        parse_args = parser.parse_args

        def timed_parse_args(*args, **kwargs):
            t = time.perf_counter()
            try:
                return parse_args(*args, **kwargs)
            finally:
                spans["parse_args"] += time.perf_counter() - t

        parser.parse_args = timed_parse_args
        return parser

    cli.build_parser = timed_build_parser
    t = time.perf_counter()
    code = cli.main(sys.argv[1:])
    total = time.perf_counter() - t
    sys.stdout.flush()
    report = {
        "start": START,
        "import_s": import_s,
        "build_parser_s": spans["build_parser"],
        "parse_args_s": spans["parse_args"],
        "handler_s": total - spans["build_parser"] - spans["parse_args"],
        "stats": {k: v for k, v in tracer.stats.items() if v[0]},
    }
    sys.stderr.write("BENCH_CHILD " + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
