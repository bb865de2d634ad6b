#!/usr/bin/env python3
"""Lists library functions that no binary links.

Usage, from the root of the repository:

    python3 tools/dead_symbols.py BUILD_DIR [BUILD_DIR ...]

Each BUILD_DIR is a CMake build tree of this repository (the main tree, or
perfbench/ built on its own) compiled with

    -O0 -ffunction-sections -fdata-sections -fkeep-inline-functions  (compile)
    -Wl,--gc-sections                                                 (link)

so every function sits in its own section and the linker drops each one no
binary reaches. -fkeep-inline-functions makes each translation unit emit the
inline functions its headers define (class-body members included) as weak
symbols, which an ordinary build emits only where they are called, so an
inline function nobody calls shows up too. The script reads the
`guillotine::` text symbols that libguillotine.a defines (taken from the
first BUILD_DIR) and the text symbols of every executable at the top level
of every BUILD_DIR, then prints each library symbol that no executable
contains. -O0 keeps the library's own calls out of line, so a function only
other library code calls is still found live.

Two kinds of symbol are not reported, because the compiler emits them
whether or not the design needs them: lambda bodies, and weak (inline or
implicit) constructors, destructors and operators. Strong symbols of every
kind are reported.

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
    """Maps the mangled name of each text symbol `path` defines to its nm type."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in TEXT_TYPES:
            names[fields[2]] = fields[1]
    return names


def split_scope(name):
    """Splits a demangled `a::b<c::d>::e(args) const` into its scope parts,
    ignoring `::` inside template arguments and the parameter list."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(name):
        c = name[i]
        if c in "<(":
            if c == "(" and depth == 0:
                break
            depth += 1
        elif c in ">)":
            depth -= 1
        elif depth == 0 and name.startswith("::", i):
            parts.append(name[start:i])
            start = i + 2
            i += 1
        i += 1
    parts.append(name[start:i])
    return parts


def compiler_emitted(demangled, nm_type):
    """True for lambda bodies and weak constructors, destructors and
    operators."""
    if "{lambda" in demangled:
        return True
    if nm_type not in "Ww":
        return False
    parts = split_scope(demangled)
    last = parts[-1]
    if last.startswith("~") or last.startswith("operator"):
        return True
    owner = parts[-2].split("<")[0] if len(parts) > 1 else ""
    return last.split("<")[0] == owner


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
    defined = {m: t for m, t in text_symbols(library).items()
               if IN_NAMESPACE.match(m)}

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
        linked |= text_symbols(binary).keys()
    names = demangle(defined.keys() - linked)
    dead = sorted(d for m, d in names.items()
                  if not compiler_emitted(d, defined[m]))
    for name in dead:
        print(name)
    print("dead_symbols: %d of %d library functions linked by no binary (%d binaries)"
          % (len(dead), len(defined), len(binaries)), file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
