"""fp-fence: keep floating-point contraction, FMA and hand-written SIMD
out of src/, and pin the compile flags that make the bit-identity story
(batched lanes vs the scalar solver compared with exact ==) actually
hold.

Three rule groups:

  flags    every src/ TU must compile with -ffp-contract=off (the
           top-level CMakeLists adds it project-wide) and without any of
           the fast-math family — a TU that re-enables contraction can
           fuse a*b+c on one path but not the other and silently break
           the == audits.
  sources  in every file, std::fma / __builtin_fma* / FMA intrinsics /
           `#pragma STDC FP_CONTRACT ON` / direct <immintrin.h> or
           <arm_neon.h> includes are banned: the batched solver's lane
           loops in dlt/batch_kernels.hpp are portable C++ that the
           compiler vectorizes.
  anchors  inside the kernel header the sanctioned left-associated
           spellings of the α̂ recurrence must be present verbatim, and
           kernel-consuming TUs must not re-derive the recurrence inline
           (the `(x + tail) + z` shape) — there is exactly ONE spelling
           of every recurrence, in the kernel header or linear.cpp.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List

from . import compiledb, cpplex
from .report import CheckResult, Finding

KERNEL_HEADER = Path("dlt") / "batch_kernels.hpp"
# linear.cpp holds pair_alpha_hat — the scalar canonical spelling the
# kernels mirror; it may state the recurrence.
SANCTIONED_SOURCES = {KERNEL_HEADER, Path("dlt") / "linear.cpp"}

BANNED_FLAGS = {
    "-ffast-math": "enables unsafe FP transformations project-wide",
    "-funsafe-math-optimizations": "licenses re-association",
    "-fassociative-math": "licenses re-association",
    "-freciprocal-math": "replaces division with reciprocal multiply",
    "-Ofast": "implies -ffast-math",
    "-ffp-contract=fast": "allows FMA fusion across expressions",
    "-ffp-contract=on": "allows FMA fusion within expressions",
}
REQUIRED_FLAG = "-ffp-contract=off"

_FMA_CALL_RE = re.compile(r"\b(?:std\s*::\s*)?fma[fl]?\s*\(")
_FMA_BUILTIN_RE = re.compile(r"\b__builtin_fma\w*\b")
_FMA_INTRIN_RE = re.compile(
    r"\b(?:_mm\d*_f[nm]?m(?:add|sub)\w*|vfma\w*|vfms\w*)\b")
_PRAGMA_RE = re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON")
_SIMD_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](immintrin|arm_neon)\.h[>"]')

# The exact association-order spellings the lane loops and their audits
# rely on; whitespace-insensitive. If a kernel rewrite drops one of
# these, the fence fails loudly so the change is made consciously in
# both places.
KERNEL_ANCHORS = [
    "(w[k] + tail[k]) + z[k]",
    "(w + tail[k]) + z",
    "(bids[k] + tail) + z",
]

# A parenthesized sum ending in a tail-named term, itself summed again:
# the `(x + tail) + z` denominator shape of the α̂ recurrence.
_REDERIVE_RE = re.compile(
    r"\(\s*[A-Za-z_]\w*(?:\[[^\]\n]*\])?\s*\+\s*"
    r"[A-Za-z_]*tail\w*(?:\[[^\]\n]*\])?\s*\)\s*\+")


def _norm(text: str) -> str:
    return re.sub(r"\s+", "", text)


def run(src_root: str, entries: List[compiledb.Entry]) -> CheckResult:
    res = CheckResult(check="fp-fence")
    root = Path(src_root).resolve()

    flagged_tus = 0
    for e in entries:
        rel = _rel(e.resolved_file(), root)
        flags = compiledb.compiler_flags(e)
        joined = set(flags)
        for bad, why in BANNED_FLAGS.items():
            if bad in joined:
                res.findings.append(Finding(
                    "fp-fence", "error", rel, 0,
                    f"compile command carries {bad} ({why}); the solver's "
                    "bit-identity audits require default IEEE semantics"))
        # Last -ffp-contract wins; require the effective value to be off.
        effective = None
        for f in flags:
            if f.startswith("-ffp-contract="):
                effective = f
            elif f == "-Ofast":
                effective = "-ffp-contract=fast"
        if effective != REQUIRED_FLAG:
            got = effective or "compiler default (fast at -O2+ for GCC)"
            res.findings.append(Finding(
                "fp-fence", "error", rel, 0,
                f"compile command must pin {REQUIRED_FLAG} (effective: "
                f"{got}) — contraction may fuse a*b+c into an FMA on one "
                "code path but not its bit-identity twin"))
        else:
            flagged_tus += 1

    files = sorted(p for p in root.rglob("*")
                   if p.suffix in (".cpp", ".hpp", ".h", ".cc"))
    for path in files:
        rel_path = path.relative_to(root)
        rel = _rel(path, root)
        raw = path.read_text(encoding="utf-8", errors="replace")
        stripped = cpplex.strip_comments_and_strings(raw)
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            if _PRAGMA_RE.search(line):
                res.findings.append(Finding(
                    "fp-fence", "error", rel, lineno,
                    "#pragma STDC FP_CONTRACT ON re-enables fusion the "
                    "build globally disabled"))
            for pat, what in ((_FMA_CALL_RE, "fma() call"),
                              (_FMA_BUILTIN_RE, "__builtin_fma*"),
                              (_FMA_INTRIN_RE, "FMA intrinsic")):
                if pat.search(line):
                    res.findings.append(Finding(
                        "fp-fence", "error", rel, lineno,
                        f"{what} — fused rounding diverges from the "
                        "scalar reference the audits replay"))
            if _SIMD_INCLUDE_RE.search(line):
                res.findings.append(Finding(
                    "fp-fence", "error", rel, lineno,
                    "SIMD intrinsics header included; the lane loops in "
                    f"{KERNEL_HEADER} are portable C++ the compiler "
                    "vectorizes"))

        if rel_path.parts[:1] == ("dlt",) and \
                rel_path not in SANCTIONED_SOURCES:
            for lineno, line in enumerate(stripped.splitlines(), start=1):
                if _REDERIVE_RE.search(line):
                    res.findings.append(Finding(
                        "fp-fence", "error", rel, lineno,
                        "re-derived α̂ recurrence (the '(x + tail) + z' "
                        "association) outside the sanctioned kernels — "
                        "call the batch_kernels.hpp helper instead so "
                        "there is exactly one spelling to audit"))

    kernel = root / KERNEL_HEADER
    if kernel.is_file():
        body = _norm(kernel.read_text(encoding="utf-8", errors="replace"))
        missing = [a for a in KERNEL_ANCHORS if _norm(a) not in body]
        for a in missing:
            res.findings.append(Finding(
                "fp-fence", "error", _rel(kernel, root), 0,
                f"sanctioned association anchor '{a}' not found in the "
                "kernel header — if the kernels were rewritten, update "
                "the fence and the audits together"))
        if not missing:
            res.proven.append(
                f"{len(KERNEL_ANCHORS)} sanctioned association anchors "
                f"present in {KERNEL_HEADER}")

    if flagged_tus and not res.errors():
        res.proven.append(
            f"{flagged_tus} TU(s) pinned to {REQUIRED_FLAG}, no fast-math")
    return res


def _rel(path: Path, root: Path) -> str:
    try:
        return str(Path("src") / path.relative_to(root))
    except ValueError:
        return str(path)
