#!/usr/bin/env python3
"""Lists library functions that no product binary links.

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
first BUILD_DIR) and the text symbols of every product executable at the top
level of every BUILD_DIR, then prints each library symbol that no product
executable contains. -O0 keeps the library's own calls out of line, so a
function only other library code calls is still found live.

Product executables are the benches, examples and perfbench. Test
executables (`*_test`) are not read: code that only tests reach is surface
no product path exercises, and it fails this check unless ALLOWLIST names it.
Each allowlist entry is a regular expression matched against the start of a
demangled name, with a one-line reason. An entry that matches no unlinked
symbol is stale (a product path now reaches it, or the code is gone) and
fails the check too.

Two kinds of symbol are not reported, because the compiler emits them
whether or not the design needs them: lambda bodies, and weak (inline or
implicit) constructors, destructors and operators. Strong symbols of every
kind are reported.

Exits 1 when a symbol outside the allowlist is unlinked or an allowlist entry
is stale, 0 otherwise.
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

PARSER = "scenario-script parser: fuzz repros replay through it"
OBSERVER = "test observer; folds into item 10's MetricsSnapshot"

# Functions only tests reach, each with the reason it stays in the library.
ALLOWLIST = [
    (r"guillotine::ParseScenarioScript\(", PARSER),
    (r"guillotine::IsolationLevelFromName\(", PARSER),
    (r"guillotine::\(anonymous namespace\)::(LineError|ParseNumber|TokenizeLine)\(",
     PARSER),
    (r"guillotine::\(anonymous namespace\)::ScriptToken::", PARSER),
    (r"guillotine::(Status|Result<.*>) guillotine::\(anonymous namespace\)::"
     r"(NarrowNumber|ParseNumberList|ParseLine|ParseValue)<", PARSER),
    (r"guillotine::Result<std::vector<(int|unsigned int|"
     r"guillotine::\(anonymous namespace\)::ScriptToken), ", PARSER),
    (r"guillotine::HmacSha256\(",
     "reference HMAC that crypto_test compares HmacKey against"),
    (r"guillotine::Scenario::Custom\(|"
     r"guillotine::ScenarioResult::(AllStepsRan|Find|Summary)\b",
     "assertion half of the scenario DSL"),
    (r"guillotine::SoftwareHypervisor::(RevokePort|SuspendPort)\(|"
     r"guillotine::PortTable::Revoke\(",
     "paper mechanism; its fuzz step waits for a corpus repin "
     "(ROADMAP items 6 and 9)"),
    (r"guillotine::GuillotineSystem::(breaker|steering)\(",
     "test handle: arms an activation detector no product path arms "
     "(ROADMAP item 6)"),
    (r"guillotine::Regulator::ca_public_key\(",
     "test handle: no product path verifies a regulator-issued certificate "
     "(ROADMAP item 6)"),
] + [(r"guillotine::" + re.escape(name) + r"\b", OBSERVER) for name in [
    "AnomalyDetector::learned_rate",
    "Cache::Probe",
    "Cache::stats",
    "InvariantChecker::invariants",
    "ModelCore::fault_cause",
    "ModelCore::lockdown",
    "ModelCore::tlb",
    "ModelService::active_shards",
    "NicDevice::inbound_depth",
    "ScenarioRunner::exfil_payloads",
    "ScenarioRunner::traffic_report",
    "SecureChannel::stats",
]]


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
            if not entry.endswith("_test") and is_executable_elf(path):
                binaries.append(path)
    if not binaries:
        sys.exit("dead_symbols: no product executables in " + " ".join(argv[1:]))

    linked = set()
    for binary in binaries:
        linked |= text_symbols(binary).keys()
    names = demangle(defined.keys() - linked)
    unlinked = sorted(d for m, d in names.items()
                      if not compiler_emitted(d, defined[m]))

    patterns = [re.compile(p) for p, _ in ALLOWLIST]
    used = [False] * len(patterns)
    dead = []
    for name in unlinked:
        hits = [i for i, p in enumerate(patterns) if p.match(name)]
        for i in hits:
            used[i] = True
        if not hits:
            dead.append(name)
    for name in dead:
        print(name)
    stale = [ALLOWLIST[i][0] for i, u in enumerate(used) if not u]
    for pattern in stale:
        print("dead_symbols: allowlist entry matches no unlinked symbol: " + pattern,
              file=sys.stderr)
    print("dead_symbols: %d of %d library functions linked by no product binary "
          "(%d binaries); %d more allowlisted by %d entries"
          % (len(dead), len(defined), len(binaries), len(unlinked) - len(dead),
             len(ALLOWLIST)), file=sys.stderr)
    return 1 if dead or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
