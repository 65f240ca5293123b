#!/usr/bin/env python3
"""Checks that wide SIMD instructions stay inside the ISA-named kernels.

The libraries build with the portable baseline flags. Only the SIMD
kernels use wider instructions, through per-function target attributes,
and they run only after a CPUID check. If a function compiled for a wider
ISA leaks out, every test still passes on a CPU that has that ISA, but the
binary raises SIGILL on one that does not. This script disassembles every
librepro_*.a in a build tree and fails when:
  * an EVEX-encoded instruction, or a zmm register, appears in a function
    whose demangled name lacks "avx512";
  * a VEX-encoded instruction, or a ymm register, appears in a function
    whose demangled name lacks both "avx2" and "avx512";
  * an SSSE3/SSE4.x instruction (or popcnt) appears in a function whose
    demangled name names none of "sse41", "avx2" and "avx512".

Usage: check_isa.py <build-dir>

Exits 0 when every rule holds and 1 otherwise, printing each offending
function. Exits 77 (the ctest skip code) when objdump is missing or the
build does not target x86-64.
"""
import pathlib
import re
import shutil
import subprocess
import sys

# SSSE3, SSE4.1 and SSE4.2 mnemonics (AT&T spelling, as objdump prints
# them), plus popcnt, which shipped alongside SSE4.2.
NARROW_WIDE = {
    # SSSE3
    "pshufb", "palignr", "phaddw", "phaddd", "phaddsw", "phsubw", "phsubd",
    "phsubsw", "pmaddubsw", "pmulhrsw", "psignb", "psignw", "psignd",
    "pabsb", "pabsw", "pabsd",
    # SSE4.1
    "pblendvb", "blendvps", "blendvpd", "pblendw", "blendps", "blendpd",
    "ptest", "pmaxuw", "pminuw", "pmaxud", "pminud", "pmaxsb", "pminsb",
    "pmaxsd", "pminsd", "pmulld", "pmuldq", "pcmpeqq", "packusdw",
    "pextrb", "pextrd", "pextrq", "pinsrb", "pinsrd", "pinsrq",
    "extractps", "insertps", "dpps", "dppd", "mpsadbw", "phminposuw",
    "roundps", "roundpd", "roundss", "roundsd", "movntdqa",
    # SSE4.2
    "pcmpgtq", "pcmpestri", "pcmpestrm", "pcmpistri", "pcmpistrm", "crc32",
    "popcnt",
}
NARROW_WIDE_PREFIXES = ("pmovzx", "pmovsx")

# Legacy prefixes that may precede a VEX/EVEX escape byte in 64-bit code
# (segment overrides and the address-size override).
SKIPPABLE_PREFIXES = {"26", "2e", "36", "3e", "64", "65", "67"}
# In 64-bit mode c4/c5 always start a VEX and 62 an EVEX instruction.
ESCAPES = {"c4": "VEX", "c5": "VEX", "62": "EVEX"}
YMM = re.compile(r"%ymm\d+")
ZMM = re.compile(r"%zmm\d+")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")

# Each rule: (name, the ISA names a function must mention to hold the
# instruction, predicate over (raw bytes, instruction, mnemonic)).
RULES = (
    ("EVEX or zmm outside an avx512 function", ("avx512",),
     lambda raw, ins, mn: encoding(raw) == "EVEX" or ZMM.search(ins) is not None),
    ("VEX or ymm outside an avx2/avx512 function", ("avx2", "avx512"),
     lambda raw, ins, mn: encoding(raw) == "VEX" or YMM.search(ins) is not None),
    ("SSSE3/SSE4.x outside an sse41/avx2/avx512 function", ("sse41", "avx2", "avx512"),
     lambda raw, ins, mn: is_narrow_wide(mn)),
)


def encoding(raw_bytes):
    """"VEX", "EVEX" or None for an instruction's raw bytes."""
    for byte in raw_bytes:
        if byte not in SKIPPABLE_PREFIXES:
            return ESCAPES.get(byte)
    return None


def is_narrow_wide(mnemonic):
    return mnemonic in NARROW_WIDE or mnemonic.startswith(NARROW_WIDE_PREFIXES)


def check_library(objdump, lib):
    """Yields (function, rule, instruction) for each violation in `lib`."""
    out = subprocess.run([objdump, "-d", "-C", "-w", str(lib)], capture_output=True,
                         text=True, check=True).stdout
    function = None
    reported = set()
    for line in out.splitlines():
        head = FUNCTION.match(line)
        if head:
            function = head.group(1)
            continue
        fields = line.split("\t")
        if function is None or len(fields) < 3:
            continue
        raw_bytes = fields[1].split()
        instruction = fields[2].strip()
        mnemonic = instruction.split(" ", 1)[0]
        for rule, allowed, matches in RULES:
            if any(isa in function for isa in allowed):
                continue
            if matches(raw_bytes, instruction, mnemonic) and (function, rule) not in reported:
                reported.add((function, rule))
                yield function, rule, instruction


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    objdump = shutil.which("objdump")
    if objdump is None:
        print("objdump is not installed; skipping the ISA containment check")
        return 77
    build = pathlib.Path(argv[1])
    libs = sorted(build.rglob("librepro_*.a"))
    if not libs:
        print(f"no librepro_*.a under {build}")
        return 1
    header = subprocess.run([objdump, "-f", str(libs[0])], capture_output=True, text=True,
                            check=True).stdout
    if "x86-64" not in header:
        print("the build does not target x86-64; skipping the ISA containment check")
        return 77
    failures = 0
    for lib in libs:
        for function, rule, instruction in check_library(objdump, lib):
            print(f"{lib.name}: {rule}: {function}: {instruction}")
            failures += 1
    print(f"checked {len(libs)} libraries: {failures} violation(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
