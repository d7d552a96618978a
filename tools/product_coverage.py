#!/usr/bin/env python3
"""Product-coverage ratchet: which functions in src/ no product path runs.

Builds the library and its programs with `--coverage -O0` (Debug) into
BUILD_DIR, runs the product set with DMV_NUM_THREADS=4, reads the
counts with `gcov --json-format` and lists every function defined in
src/**/*.cpp that no run executed. Lambdas, template instances and
constructor/destructor variants fold into their enclosing named
function, so each entry is one function as written in the source.

The product set is what the repository ships and checks against the
paper:
  * every FigureGolden program (`ctest -R '^FigureGolden\\.'`, which also
    compares their output with dmv_renders/);
  * table1_bert and table1_hdiff;
  * the examples in examples/, with every analyze_cli command run on
    the jacobi.json that custom_kernel_analysis writes;
  * every tools/serve_smoke.py run that CI's serve-smoke job makes;
  * `dmv_store warm`, and the sweeps it must refuse;
  * `dmv_serve` with an unknown flag and `dmv_store` with no command,
    each of which must print its usage and exit 2.

The interaction ledger (bench/ledger/) is left out. Its traced probes
call library code directly that no served path runs, so counting them
would hide exactly the code this list exists to find, and its served
runs take minutes at -O0.

The worker count is pinned because reachability depends on it: the
pool and the chunked trace paths run only with more than one worker.

  --check  (default) fail when a function that is not on
           tools/product_unreached.txt goes unreached. Listed functions
           that are now reached, or gone, are named so the list can
           shrink; they do not fail the check.
  --write  rewrite tools/product_unreached.txt from this run.

Usage: product_coverage.py [--build-dir DIR] [--check | --write]
"""

import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIST = os.path.join(REPO, "tools", "product_unreached.txt")
THREADS = "4"
# The serve smoke's hdiff drag, which the warm gate below fills ahead.
WARM_SWEEP = ["--workload", "hdiff", "--sweep", "K=5:9", "--set", "I=8",
              "--set", "J=8"]
# Sweeps dmv_store warm must refuse with exit 2 (LO > HI, a zero step, a
# symbol hdiff does not declare).
REFUSED_SWEEPS = ["K=9:5", "K=5:7:0", "Q=5:7"]
ANALYZE_COMMANDS = ["summary", "volume", "scaling", "simulate", "roofline",
                    "svg=jacobi.svg"]


def fail(message):
    print(f"product_coverage: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(argv, cwd=None, expect=0, stdout=subprocess.DEVNULL):
    env = dict(os.environ, DMV_NUM_THREADS=THREADS)
    result = subprocess.run(argv, cwd=cwd, env=env, stdout=stdout)
    if result.returncode != expect:
        fail(f"{' '.join(argv)} exited {result.returncode}, want {expect}")


def build(build_dir):
    configure = ["cmake", "-S", REPO, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Debug",
                 "-DCMAKE_CXX_FLAGS=--coverage -O0",
                 "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    run(configure, stdout=None)
    listed = subprocess.run(
        ["ctest", "--test-dir", build_dir, "-N", "-R", r"^FigureGolden\."],
        capture_output=True, text=True, check=True).stdout
    figures = re.findall(r"FigureGolden\.(\w+)", listed)
    if not figures:
        fail("ctest lists no FigureGolden tests")
    examples = sorted(os.path.splitext(os.path.basename(path))[0]
                      for path in glob.glob(os.path.join(REPO, "examples",
                                                         "*.cpp")))
    targets = sorted(set(figures + examples + [
        "table1_bert", "table1_hdiff", "dmv_serve", "dmv_store"]))
    run(["cmake", "--build", build_dir, "--target", *targets], stdout=None)
    return examples


def run_product_set(build_dir, examples, scratch):
    """Runs every product path once; the counts land in *.gcda files."""
    for stale in glob.glob(os.path.join(build_dir, "**", "*.gcda"),
                           recursive=True):
        os.remove(stale)
    run(["ctest", "--test-dir", build_dir, "-R", r"^FigureGolden\.",
         "--output-on-failure"])
    for table in ("table1_bert", "table1_hdiff"):
        run([os.path.join(build_dir, "bench", table),
             "--benchmark_min_time=0.01"], cwd=scratch)
    # analyze_cli reads the jacobi.json that custom_kernel_analysis writes.
    for example in examples:
        if example != "analyze_cli":
            run([os.path.join(build_dir, "examples", example)], cwd=scratch)
    run([os.path.join(build_dir, "examples", "analyze_cli"), "jacobi.json",
         "--param", "N=12", *ANALYZE_COMMANDS], cwd=scratch)

    serve = os.path.join(build_dir, "src", "dmv_serve")
    store = os.path.join(build_dir, "src", "dmv_store")
    smoke = [sys.executable, os.path.join(REPO, "tools", "serve_smoke.py"),
             serve]
    disk = os.path.join(scratch, "smoke_cache")
    sums = os.path.join(scratch, "smoke_sums.json")
    warm = os.path.join(scratch, "warm_cache")
    run(smoke)
    run(smoke + ["--tcp"])
    run(smoke + ["--stats-file", os.path.join(scratch, "stats.json")])
    run(smoke + ["--cache-dir", disk, "--checksum-file", sums])
    run(smoke + ["--cache-dir", disk, "--checksum-file", sums,
                 "--expect-disk-warm"])
    run([store, "warm", "--cache-dir", warm, *WARM_SWEEP])
    run(smoke + ["--cache-dir", warm, "--expect-disk-warm"])
    for sweep in REFUSED_SWEEPS:
        run([store, "warm", "--workload", "hdiff", "--cache-dir",
             os.path.join(scratch, "refused"), "--sweep", sweep], expect=2)
    # A flag neither program knows, and no command at all: each prints
    # its usage and exits 2.
    run([serve, "--no-such-flag"], expect=2)
    run([store], expect=2)


# Operator names whose punctuation would confuse the bracket matching
# below; each is swapped for a placeholder while a name is parsed.
OPERATORS = ["()", "[]", "<=>", "<<=", ">>=", "<<", ">>", "<=", ">=", "->*",
             "->", "<", ">"]
OPEN, CLOSE = "<({[", ">)}]"
# Default template arguments, dropped so parameter types read as written.
DEFAULT_ARGS = [", std::char_traits<char>", ", std::allocator<", ", std::less<"]
SHORT_NAMES = [("std::__cxx11::basic_string<char>", "std::string"),
               ("std::basic_string_view<char>", "std::string_view")]


def protect(name):
    saved = []
    name = name.replace("(anonymous namespace)", "\x01")
    # A conversion operator's name holds a space.
    name = name.replace("operator ", "operator\x02")
    for op in OPERATORS:
        token = f"operator{op}"
        while token in name:
            saved.append(token)
            name = name.replace(token, f"operator\x03{len(saved) - 1}\x03", 1)
    return name, saved


def restore(name, saved):
    for index, token in enumerate(saved):
        name = name.replace(f"operator\x03{index}\x03", token)
    name = name.replace("operator\x02", "operator ")
    return name.replace("\x01", "(anonymous namespace)")


def drop_default_args(name):
    for prefix in DEFAULT_ARGS:
        while prefix in name:
            start = name.index(prefix)
            end = start + len(prefix)
            if prefix.endswith("<"):
                depth = 1
                while depth:
                    depth += {"<": 1, ">": -1}.get(name[end], 0)
                    end += 1
            name = name[:start] + name[end:]
    # The demangler spaces only "> >"; a dropped argument leaves "char >".
    name = re.sub(r"([^>]) >", r"\1>", name)
    for long_name, short_name in SHORT_NAMES:
        name = name.replace(long_name, short_name)
    return name


def top_level(name):
    """Yields (index, char, depth before char) over `name`."""
    depth = 0
    for index, char in enumerate(name):
        if char in CLOSE:
            depth -= 1
        yield index, char, depth
        if char in OPEN:
            depth += 1


def enclosing_function(demangled):
    """The named function a gcov entry belongs to, as written in the
    source: lambdas and local classes fold into the function around
    them, template arguments are dropped (a function template's
    parameters become `...`), and a template instance's return type
    goes. Constructor and destructor variants already share a name."""
    name, saved = protect(demangled.replace("[abi:cxx11]", ""))
    # The outermost parameter list, and the qualifiers after it.
    params_start = params_end = None
    for index, char, depth in top_level(name):
        if depth != 0:
            continue
        if char == "(" and params_start is None:
            params_start = index
        elif char == ")" and params_start is not None:
            params_end = index
            break
    if params_start is None or params_end is None:
        return restore(name, saved)
    tail = name[params_end + 1:]
    local = tail.find("::")
    qualifiers = (tail if local < 0 else tail[:local]).rstrip()
    head = name[:params_start]
    # A template instance's demangled name starts with its return type.
    spaces = [index for index, char, depth in top_level(head)
              if depth == 0 and char == " "]
    if spaces:
        head = head[spaces[-1] + 1:]
    stripped, angles, is_template = [], 0, head.endswith(">")
    for char in head:
        if char in "<>":
            angles += 1 if char == "<" else -1
        elif angles == 0:
            stripped.append(char)
    params = "..." if is_template else name[params_start + 1:params_end]
    return restore(drop_default_args(
        f"{''.join(stripped)}({params}){qualifiers}"), saved)


def gcov_records(build_dir):
    """gcov's JSON for every object of src/ (executables' and the
    library's), whether or not a run wrote its counts."""
    notes = sorted(glob.glob(os.path.join(build_dir, "src", "**", "*.gcno"),
                             recursive=True))
    if not notes:
        fail(f"no *.gcno under {build_dir}/src: not a --coverage build")
    output = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--demangled-names", *notes],
        capture_output=True, text=True, check=True).stdout
    for line in output.splitlines():
        if line.strip():
            yield json.loads(line)


def collect(build_dir):
    """Folded functions of src/**/*.cpp with their reached flag, and the
    executed and executable line counts of src/."""
    src = os.path.join(REPO, "src") + os.sep
    functions, lines = {}, {}
    for record in gcov_records(build_dir):
        for entry in record["files"]:
            path = os.path.realpath(os.path.join(
                record.get("current_working_directory", ""), entry["file"]))
            if not path.startswith(src):
                continue
            relative = os.path.relpath(path, REPO)
            for line in entry["lines"]:
                key = (relative, line["line_number"])
                lines[key] = lines.get(key, 0) + line["count"]
            if not relative.endswith(".cpp"):
                continue
            for function in entry["functions"]:
                demangled = function["demangled_name"]
                # Compiler-made static initializers have no source name.
                if demangled.startswith(("_GLOBAL__",
                                         "__static_initialization")):
                    continue
                key = f"{relative}: {enclosing_function(demangled)}"
                functions[key] = (functions.get(key, False)
                                  or function["execution_count"] > 0)
    executed = sum(1 for count in lines.values() if count > 0)
    return functions, executed, len(lines)


def read_list():
    if not os.path.exists(LIST):
        return set()
    with open(LIST) as handle:
        return {line.rstrip("\n") for line in handle
                if line.strip() and not line.startswith("#")}


def write_list(unreached):
    with open(LIST, "w") as handle:
        handle.write(
            "# Functions defined in src/**/*.cpp that no product path runs\n"
            "# (tools/product_coverage.py). The list may only shrink: the\n"
            "# product-coverage CI job fails on an unreached function that\n"
            "# is not listed. Regenerate with\n"
            "#   python3 tools/product_coverage.py --write\n")
        for entry in sorted(unreached):
            handle.write(entry + "\n")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir",
                        default=os.path.join(REPO, "build-coverage"))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    examples = build(build_dir)
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="dmv_product_") as scratch:
        run_product_set(build_dir, examples, scratch)
    elapsed = time.monotonic() - started
    functions, executed, executable = collect(build_dir)
    unreached = {key for key, reached in functions.items() if not reached}
    print(f"product_coverage: {executed} of {executable} executable lines in "
          f"src/ ran; {len(functions) - len(unreached)} of {len(functions)} "
          f"functions in src/**/*.cpp reached, {len(unreached)} not; "
          f"product runs took {elapsed:.0f} s at DMV_NUM_THREADS={THREADS}")

    if args.write:
        write_list(unreached)
        print(f"product_coverage: wrote {len(unreached)} entries to "
              f"{os.path.relpath(LIST, REPO)}")
        return
    listed = read_list()
    for entry in sorted(listed - unreached):
        state = "reached" if entry in functions else "gone"
        print(f"product_coverage: listed but {state}, remove it: {entry}")
    new = sorted(unreached - listed)
    if new:
        fail("no product path runs these unlisted functions; give each a "
             "product caller, move it to tests/ or delete it:\n  "
             + "\n  ".join(new))
    print("product_coverage: OK")


if __name__ == "__main__":
    main()
