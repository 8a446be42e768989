#!/usr/bin/env python3
"""Check that every batch-kernel loop in fluid_lane.cpp vectorizes in every
target_clones clone.

Usage:
  python3 tools/check_vectorized.py [--source FILE] [--include DIR]
                                    [--cxx COMPILER]

The fluid batch kernels (src/vodsim/cluster/fluid_lane.cpp) are the
functions marked VODSIM_BATCH_KERNEL_CLONES, which GCC compiles three
times: an SSE2 baseline ("default", 16-byte vectors), "avx2" (32-byte) and
"avx512f" (64-byte), one picked per host at load time. A loop that
vectorizes only in the AVX-512 clone still passes every test, yet runs
scalar on every host without AVX-512. This script compiles the file with
the project's Release flags, plus the file's own COMPILE_OPTIONS read from
src/CMakeLists.txt, plus -fopt-info-vec-all. It then requires, for every
`for` loop in a kernel body, one "loop vectorized using N byte vectors"
note per clone width.

Exemptions:
  - least_time_bits (a min over int64) at 16 bytes. SSE2 has no 64-bit
    integer compare (pcmpgtq arrives with SSE4.2), so GCC cannot vectorize
    the min in the baseline clone; the AVX2 and AVX-512 clones must still
    vectorize it.
  - predicted_event_times at 16 and 32 bytes. Its formula,
    fluid_detail::predicted_times, keeps short-circuit gates around its
    divisions so that the per-slot retime (far more frequent than the
    batched one) runs one division, not three; only AVX-512's masked
    operations if-convert those gates. The formula's comment has the
    measurement.

Exit code: 0 when every kernel loop vectorizes at every width it must; 1
when one does not (each miss is listed); 2 on a usage error, a compile
error, a non-GCC compiler, or a source with no kernel loops (a check that
finds nothing to check must not pass).

Stdlib only; no third-party imports.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

REPO_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir))
DEFAULT_SOURCE = os.path.join(REPO_DIR, "src", "vodsim", "cluster",
                              "fluid_lane.cpp")
SRC_CMAKE = os.path.join(REPO_DIR, "src", "CMakeLists.txt")

# CMAKE_CXX_FLAGS_RELEASE for GCC, the C++ standard from the top-level
# CMakeLists.txt (CMAKE_CXX_EXTENSIONS OFF), and its warning flags. A copy:
# keep it in step with CMakeLists.txt (CMAKE_CXX_STANDARD,
# add_compile_options) when either changes. The file's own COMPILE_OPTIONS
# are read from src/CMakeLists.txt, not copied.
RELEASE_FLAGS = ["-std=c++20", "-O3", "-DNDEBUG", "-Wall", "-Wextra"]

# Vector width, in bytes, of each target_clones target.
CLONE_WIDTHS = {"default": 16, "avx2": 32, "avx512f": 64}

# Widths a kernel may miss; see the module docstring.
EXEMPT = {"least_time_bits": {16}, "predicted_event_times": {16, 32}}

MACRO = "VODSIM_BATCH_KERNEL_CLONES"


def tu_options(source):
    """The COMPILE_OPTIONS src/CMakeLists.txt sets on \\p source's file."""
    try:
        with open(SRC_CMAKE, encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return []
    name = re.escape(os.path.basename(source))
    match = re.search(
        r"set_source_files_properties\(\S*" + name +
        r"\s+PROPERTIES\s+COMPILE_OPTIONS\s+\"([^\"]*)\"", text)
    return match.group(1).split(";") if match else []


def clone_widths(text):
    """The vector width of each clone the kernel macro names."""
    match = re.search(r"target_clones\(([^)]*)\)", text)
    if not match:
        return []
    targets = re.findall(r"\"([^\"]+)\"", match.group(1))
    return sorted(CLONE_WIDTHS[target] for target in targets
                  if target in CLONE_WIDTHS)


def kernel_loops(text):
    """[(kernel name, [line of each `for` in its body])] for every function
    definition that follows a line holding only the kernel macro."""
    lines = text.split("\n")
    kernels = []
    for index, line in enumerate(lines):
        if line.strip() != MACRO:
            continue
        offset = sum(len(l) + 1 for l in lines[:index + 1])
        open_brace = text.index("{", offset)
        signature = re.sub(r"__attribute__\(\(.*?\)\)", "",
                           text[offset:open_brace], flags=re.S)
        name = re.search(r"(\w+)\s*\(", signature).group(1)
        depth = 0
        for end in range(open_brace, len(text)):
            if text[end] == "{":
                depth += 1
            elif text[end] == "}":
                depth -= 1
                if depth == 0:
                    break
        body_start = text.count("\n", 0, open_brace) + 1
        body = text[open_brace:end].split("\n")
        loops = [body_start + k for k, body_line in enumerate(body)
                 if re.search(r"\bfor\s*\(", body_line)]
        kernels.append((name, loops))
    return kernels


def vectorized_widths(report, source):
    """{line: {widths}} from -fopt-info-vec "loop vectorized" notes."""
    name = re.escape(os.path.basename(source))
    result = {}
    for match in re.finditer(
            name + r":(\d+):\d+: optimized: loop vectorized using "
            r"(\d+) byte vectors", report):
        result.setdefault(int(match.group(1)), set()).add(int(match.group(2)))
    return result


def is_gcc(cxx):
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout
    except OSError:
        return False
    return "Free Software Foundation" in version and "clang" not in version


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--source", default=DEFAULT_SOURCE,
                        help="the kernel source (default: fluid_lane.cpp)")
    parser.add_argument("--include", default=os.path.join(REPO_DIR, "src"),
                        help="include root (default: the repository's src/)")
    parser.add_argument("--cxx", default=os.environ.get("CXX") or "g++",
                        help="GCC C++ compiler (default: $CXX or g++)")
    args = parser.parse_args(argv)

    if shutil.which(args.cxx) is None or not is_gcc(args.cxx):
        print(f"check_vectorized: {args.cxx} is not GCC; the check reads "
              "GCC's -fopt-info-vec-all notes", file=sys.stderr)
        return 2
    try:
        with open(args.source, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        print(f"check_vectorized: cannot read {args.source}: {error}",
              file=sys.stderr)
        return 2
    kernels = kernel_loops(text)
    widths = clone_widths(text)
    if not widths or not any(loops for _, loops in kernels):
        print(f"check_vectorized: no {MACRO} kernel loops in {args.source}",
              file=sys.stderr)
        return 2

    command = [args.cxx, *RELEASE_FLAGS, *tu_options(args.source),
               "-fopt-info-vec-all", "-I", args.include, "-c", args.source,
               "-o", os.devnull]
    compiled = subprocess.run(command, capture_output=True, text=True)
    if compiled.returncode != 0:
        print("check_vectorized: compile failed:\n" + " ".join(command) +
              "\n" + compiled.stderr[-4000:], file=sys.stderr)
        return 2
    found = vectorized_widths(compiled.stderr, args.source)

    misses = []
    for name, loops in kernels:
        needed = set(widths) - EXEMPT.get(name, set())
        for line in loops:
            missing = needed - found.get(line, set())
            status = "ok" if not missing else "NOT VECTORIZED at " + ", ".join(
                f"{width}-byte" for width in sorted(missing))
            print(f"{name} (line {line}): {status}")
            if missing:
                misses.append(name)
    if misses:
        print(f"check_vectorized: {len(misses)} kernel loop(s) not "
              "vectorized in every clone", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
