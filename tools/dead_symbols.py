#!/usr/bin/env python3
"""Lists library functions that no binary links.

Usage, from the root of the repository:

    python3 tools/dead_symbols.py BUILD_DIR [BUILD_DIR ...]

Each BUILD_DIR is a CMake build tree of this repository (the main tree, or
perfbench/ built on its own) compiled with

    -O0 -ffunction-sections -fdata-sections   (compile)
    -Wl,--gc-sections                          (link)

so every function sits in its own section and the linker drops each one no
binary reaches. The script reads the `guillotine::` text symbols that
libguillotine.a defines (taken from the first BUILD_DIR) and the text symbols
of every executable at the top level of every BUILD_DIR, then prints each
library symbol that no executable contains. -O0 keeps the library's own
calls out of line, so a function only other library code calls is still
found live.

Exits 1 when the list is non-empty, 0 otherwise.
"""

import os
import re
import subprocess
import sys

TEXT_TYPES = set("TtWw")
# A mangled name scoped in namespace guillotine (members, free functions,
# local entities such as lambdas). Matching the mangled scope rather than the
# demangled text keeps out std templates whose return type is a guillotine
# type.
IN_NAMESPACE = re.compile(r"_ZZ?N[rVKRO]*10guillotine")


def text_symbols(path):
    """Mangled names of the text symbols `path` defines."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in TEXT_TYPES:
            names.add(fields[2])
    return names


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def is_executable_elf(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    library = os.path.join(argv[1], "libguillotine.a")
    if not os.path.isfile(library):
        sys.exit("dead_symbols: no libguillotine.a in " + argv[1])
    defined = {m for m in text_symbols(library) if IN_NAMESPACE.match(m)}

    binaries = []
    for build_dir in argv[1:]:
        for entry in sorted(os.listdir(build_dir)):
            path = os.path.join(build_dir, entry)
            if is_executable_elf(path):
                binaries.append(path)
    if not binaries:
        sys.exit("dead_symbols: no executables in " + " ".join(argv[1:]))

    linked = set()
    for binary in binaries:
        linked |= text_symbols(binary)
    dead = sorted(demangle(defined - linked).values())
    for name in dead:
        print(name)
    print("dead_symbols: %d of %d library functions linked by no binary (%d binaries)"
          % (len(dead), len(defined), len(binaries)), file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
