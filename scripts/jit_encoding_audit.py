#!/usr/bin/env python3
"""Where do the JIT's code bytes go, and which could be shorter?

Disassembles raw JIT code (as written by `kernel_explorer <kernel>
<engine> <strategy> --code <file>`) with objdump, re-assembles every
instruction with GNU as, and prints, by mnemonic, how many bytes the
JIT spends above as's encoding of the same instruction.

    # audit code files written earlier
    scripts/jit_encoding_audit.py gemm.jit-base.trap.bin ...
    # write and audit every suite kernel x jit-base x {none, trap, clamp}
    # and x jit-opt x {none, trap, clamp} (versioned loops: guards and
    # clones; accesses off the pinned memory base)
    scripts/jit_encoding_audit.py --explorer build/examples/kernel_explorer
    # do two builds emit the same code? (exits 1 on any difference)
    scripts/jit_encoding_audit.py --compare old/kernel_explorer \
        build/examples/kernel_explorer

Exits 1 when any instruction with a memory operand, or any backward
branch, is longer than as encodes it: the assembler promises the
shortest displacement and a rel8 back edge wherever one reaches
(DESIGN.md §6). Other excess (say, `cmp eax, imm32` without the
accumulator short form) is reported but allowed. Forward branches are
rel32 by design (there is no relaxation pass) and are only counted, by
target: a trap island (`ud2`) or any other. Also exits 1 when the old
epoch poll (`cmpl $0x0,0x50(%rbp)` then `jne` to an interrupt island)
reappears: the JIT polls with one load from the poll page below the
context, `cmp -0x40(%rbp),%eax` (DESIGN.md §6). And exits 1 when a
jit-opt listing (a file named `*.jit-opt.*`, as --explorer writes them)
still adds the memory base from the context (`add 0x0(%rbp),%rax`):
the optimizing JIT keeps the base in a register and addresses every
access as [base + index + disp]; or when it adds a static offset to rax
(`add $imm,%rax`) right before an access through `(%r11,%rax,1)`: an
access whose check is skipped or absent takes its offset as the
displacement. Also prints, per engine x strategy, the frame-cell
operands (`(%r15)`) inside innermost loops (the spans of backward
branches that hold no other): operand traffic that register homes would
remove. That count is informational, not a gate.
Relocated `movabs` (glue, code-table and code addresses) is allow-listed:
the loader re-patches all 8 immediate bytes when a cached artifact is
mapped into another process, so its width cannot depend on the value.

--compare writes every suite kernel x {jit-base, jit-opt} x all five
strategies with two kernel_explorer binaries and compares the listings:
every instruction, trap-kind byte and jump-table entry (as a code
offset). A `movabs` immediate that is a user-space address (2^32 up to
2^47) is masked, since glue addresses differ between any two binaries;
both binaries run with address-space randomization off (setarch -R) so
that masking is all it takes. Exits 1 on any difference.

Needs objdump, as and objcopy (GNU binutils).
"""

import argparse
import collections
import os
import platform
import re
import shutil
import struct
import subprocess
import sys
import tempfile

LINE = re.compile(r"^\s*([0-9a-f]+):\t([0-9a-f ]+?)\s*\t(.*)$")
BRANCH = re.compile(r"^(j[a-z]+)\s+(0x[0-9a-f]+|[0-9a-f]+)$")
# Data the JIT emits inline: the trap-kind byte after each island's ud2
# (read by the SIGILL handler) and jump tables after `jmp *(...)`.
TRAP_KIND_BYTES = 1
SUITES = ("polybench", "specproxy")
SWEEP_CONFIGS = (("jit-base", "none"), ("jit-base", "trap"),
                 ("jit-base", "clamp"), ("jit-opt", "none"),
                 ("jit-opt", "trap"), ("jit-opt", "clamp"))
COMPARE_ENGINES = ("jit-base", "jit-opt")
COMPARE_STRATEGIES = ("none", "clamp", "trap", "mprotect", "uffd")
MOVABS = re.compile(r"^movabs \$0x([0-9a-f]+),(%\w+)$")
OLD_POLL = "cmpl $0x0,0x50(%rbp)"
CONTEXT_BASE_ADD = "add 0x0(%rbp),%rax"
OFFSET_ADD = re.compile(r"^add \$0x[0-9a-f]+,%rax$")
PINNED_ACCESS = "(%r11,%rax,1)"
FRAME_CELL = "(%r15)"
USER_ADDRESSES = range(1 << 32, 1 << 47)


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, capture_output=True, text=True, **kw)


def objdump(path, start):
    """{addr: (length, text)} decoded from byte @p start on."""
    out = run(["objdump", "-D", "-b", "binary", "-m", "i386:x86-64",
               "--insn-width=15", "--start-address=%d" % start, path]).stdout
    listing = {}
    for line in out.splitlines():
        m = LINE.match(line)
        if m:
            length = len(m.group(2).split())
            listing[int(m.group(1), 16)] = (length, " ".join(m.group(3).split()))
    return listing


def decode(path, inline_data=None):
    """Instructions of one code file as (addr, length, text), skipping the
    inline data; objdump re-syncs after each stretch of data. Appends the
    skipped data as (addr, text) to @p inline_data when it is a list."""
    data = open(path, "rb").read()
    size = len(data)
    listing = objdump(path, 0)
    insns = []
    pos = 0
    while pos < size:
        if pos not in listing:
            listing = objdump(path, pos)
            if pos not in listing:
                raise SystemExit("%s: cannot decode at 0x%x" % (path, pos))
        length, text = listing[pos]
        insns.append((pos, length, text))
        pos += length
        if text == "ud2":
            if inline_data is not None and pos < size:
                inline_data.append((pos, ".byte 0x%02x" % data[pos]))
            pos += TRAP_KIND_BYTES
        elif text.startswith("jmp *") and len(insns) >= 2:
            # The movabs before the dispatch loads the table's absolute
            # address, which is also where this code's base sits minus
            # the table offset; entries are absolute addresses into it.
            prev = insns[-2][2]
            m = re.match(r"movabs \$0x([0-9a-f]+),%rcx$", prev)
            if m:
                base = int(m.group(1), 16) - pos
                while pos + 8 <= size:
                    (entry,) = struct.unpack_from("<Q", data, pos)
                    if not 0 <= entry - base < size:
                        break
                    if inline_data is not None:
                        inline_data.append(
                            (pos, ".quad code+0x%x" % (entry - base)))
                    pos += 8
    return insns


def as_lengths(texts, workdir):
    """GNU as's length of each instruction text; None where as rejects it."""
    texts = list(texts)
    bad = set()
    while True:
        keep = [t for t in texts if t not in bad]
        src = os.path.join(workdir, "reasm.s")
        obj = os.path.join(workdir, "reasm.o")
        lens = os.path.join(workdir, "reasm.len")
        with open(src, "w") as f:
            f.write(".text\n")
            for i, t in enumerate(keep):
                f.write(".L%d:\n\t%s\n" % (i, t))
            f.write(".L%d:\n.data\n" % len(keep))
            for i in range(len(keep)):
                f.write("\t.byte .L%d-.L%d\n" % (i + 1, i))
        proc = subprocess.run(["as", "--64", "-o", obj, src],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            break
        # "reasm.s:<line>: Error: ..." -> drop that line's instruction.
        lines = {int(n) for n in re.findall(r"reasm\.s:(\d+): Error", proc.stderr)}
        dropped = {keep[(n - 3) // 2] for n in lines
                   if n >= 3 and (n - 3) % 2 == 0 and (n - 3) // 2 < len(keep)}
        if not dropped:
            raise SystemExit("as failed:\n" + proc.stderr)
        bad |= dropped
    run(["objcopy", "-O", "binary", "-j", ".data", obj, lens])
    sizes = open(lens, "rb").read()
    result = {t: sizes[i] for i, t in enumerate(keep)}
    result.update({t: None for t in bad})
    return result


def shortest_branch(mnemonic, addr, target):
    rel8 = target - (addr + 2)
    if -128 <= rel8 <= 127:
        return 2
    return 5 if mnemonic == "jmp" else 6


def config_of(path):
    """(engine, strategy) of a file named kernel.engine.strategy.bin, as
    --explorer writes them; ("files", "") for any other name."""
    parts = os.path.basename(path).split(".")
    if len(parts) == 4 and parts[3] == "bin":
        return parts[1], parts[2]
    return "files", ""


def innermost_frame_cells(insns):
    """Frame-cell operands inside innermost loops: the spans [target,
    branch] of backward branches that contain no other such span."""
    loops = {}
    for addr, _, text in insns:
        m = BRANCH.match(text)
        if m and int(m.group(2), 16) <= addr:
            target = int(m.group(2), 16)
            loops[target] = max(loops.get(target, addr), addr)
    spans = sorted(loops.items())
    inner = [(t, a) for t, a in spans
             if not any((t2, a2) != (t, a) and t <= t2 and a2 <= a
                        for t2, a2 in spans)]
    return sum(1 for addr, _, text in insns if FRAME_CELL in text
               and any(t <= addr <= a for t, a in inner))


def audit(paths, workdir):
    decoded = {p: decode(p) for p in paths}
    texts = {t for insns in decoded.values() for (_, _, t) in insns
             if not BRANCH.match(t)}
    ref = as_lengths(sorted(texts), workdir)

    by_mnemonic = collections.defaultdict(lambda: [0, 0, 0])  # n, bytes, over
    failures = []
    forward = {"trap island": [0, 0], "other": [0, 0]}  # count, bytes
    old_polls = []
    base_adds = collections.Counter()
    offset_adds = []
    loop_cells = collections.Counter()
    allowed_over = 0
    unassembled = collections.Counter()
    total = 0
    for path, insns in decoded.items():
        islands = {addr for addr, _, text in insns if text == "ud2"}
        jit_opt = ".jit-opt." in os.path.basename(path)
        if jit_opt:
            base_adds[path] = sum(text == CONTEXT_BASE_ADD
                                  for _, _, text in insns)
        loop_cells[config_of(path)] += innermost_frame_cells(insns)
        for (addr, _, text), (_, _, after) in zip(insns, insns[1:]):
            if text == OLD_POLL and after.startswith("jne "):
                old_polls.append((path, addr))
            if jit_opt and OFFSET_ADD.match(text) and PINNED_ACCESS in after:
                offset_adds.append((path, addr, text, after))
        for addr, length, text in insns:
            total += length
            mnemonic = text.split()[0]
            row = by_mnemonic[mnemonic]
            row[0] += 1
            row[1] += length
            m = BRANCH.match(text)
            if m:
                target = int(m.group(2), 16)
                if target > addr:
                    kind = "trap island" if target in islands else "other"
                    forward[kind][0] += 1
                    forward[kind][1] += length
                    continue
                over = length - shortest_branch(mnemonic, addr, target)
                if over > 0:
                    failures.append((path, addr, text, length, length - over))
                row[2] += over
                continue
            want = ref.get(text)
            if want is None:
                unassembled[text] += 1
                continue
            over = length - want
            row[2] += over
            if over <= 0:
                continue
            if mnemonic == "movabs":
                allowed_over += over
            elif "(" in text:
                failures.append((path, addr, text, length, want))

    print("%d files, %d code bytes" % (len(paths), total))
    print("%-12s %8s %9s %9s" % ("mnemonic", "count", "bytes", "above-as"))
    rows = sorted(by_mnemonic.items(), key=lambda kv: (-kv[1][2], -kv[1][1]))
    for mnemonic, (n, nbytes, over) in rows:
        print("%-12s %8d %9d %9d" % (mnemonic, n, nbytes, over))
    print("bytes above as: %d (%.1f%% of code)" %
          (sum(r[2] for r in by_mnemonic.values()),
           100.0 * sum(r[2] for r in by_mnemonic.values()) / max(total, 1)))
    print("forward branches (rel32 by design): %d, %d bytes" %
          tuple(map(sum, zip(*forward.values()))))
    for kind, (n, nbytes) in forward.items():
        print("  to %s: %d, %d bytes" % (kind, n, nbytes))
    print("allow-listed: relocated movabs, %d bytes above as" % allowed_over)
    for text, n in unassembled.most_common():
        print("not re-assembled (%d): %s" % (n, text))
    print("frame-cell operands %s in innermost loops (informational):" %
          FRAME_CELL)
    for (engine, strategy), n in sorted(loop_cells.items()):
        print("  %s %s: %d" % (engine, strategy, n))
    for path, addr, text, length, want in failures[:40]:
        print("FAIL %s+0x%x: %s is %d bytes, as encodes %d" %
              (os.path.basename(path), addr, text, length, want))
    for path, addr in old_polls[:40]:
        print("FAIL %s+0x%x: compare-and-branch epoch poll (%s; jne)" %
              (os.path.basename(path), addr, OLD_POLL))
    for path, n in sorted(base_adds.items()):
        if n:
            print("FAIL %s: %d accesses add the memory base from the "
                  "context (%s)" % (os.path.basename(path), n,
                                    CONTEXT_BASE_ADD))
    for path, addr, text, after in offset_adds[:40]:
        print("FAIL %s+0x%x: %s; %s (the offset belongs in the "
              "displacement)" % (os.path.basename(path), addr, text, after))
    unpinned = sum(base_adds.values())
    if failures or old_polls or unpinned or offset_adds:
        if failures:
            print("%d memory-operand or backward-branch encodings are "
                  "longer than GNU as's" % len(failures))
        if old_polls:
            print("%d compare-and-branch epoch polls" % len(old_polls))
        if unpinned:
            print("%d jit-opt accesses off an unpinned memory base" %
                  unpinned)
        if offset_adds:
            print("%d jit-opt accesses add their offset to rax" %
                  len(offset_adds))
        return 1
    print("OK: every memory operand and backward branch is as short as "
          "GNU as encodes it, no compare-and-branch poll is left, and "
          "%d jit-opt listings address memory off the pinned base with "
          "offsets in the displacement" % len(base_adds))
    return 0


def suite_kernels(explorer):
    listing = run([explorer]).stdout
    kernels = [line.split()[0] for line in listing.splitlines()
               if len(line.split()) >= 2 and line.startswith("  ")
               and line.split()[1] in SUITES]
    if not kernels:
        raise SystemExit("no suite kernels listed by %s" % explorer)
    return kernels


def sweep(explorer, workdir):
    """Write every suite kernel x SWEEP_CONFIGS (engine, strategy)."""
    paths = []
    for kernel in suite_kernels(explorer):
        for engine, strategy in SWEEP_CONFIGS:
            path = os.path.join(workdir, "%s.%s.%s.bin" %
                                (kernel, engine, strategy))
            run([explorer, kernel, engine, strategy, "--code", path])
            paths.append(path)
    return paths


def comparable_listing(path):
    """Instructions and inline data of one code file, in address order,
    with user-space movabs addresses masked."""
    items = []
    for addr, _, text in decode(path, items):
        m = MOVABS.match(text)
        if m and int(m.group(1), 16) in USER_ADDRESSES:
            text = "movabs $<address>,%s" % m.group(2)
        items.append((addr, text))
    return sorted(items)


def compare(old_explorer, new_explorer, workdir):
    """Write every suite kernel x COMPARE_ENGINES x COMPARE_STRATEGIES
    with both binaries; 1 if any listing differs."""
    no_aslr = []
    if shutil.which("setarch"):
        no_aslr = ["setarch", platform.machine(), "-R"]
    kernels = suite_kernels(new_explorer)
    if kernels != suite_kernels(old_explorer):
        print("the two binaries register different suite kernels")
        return 1
    configs = differing = total_bytes = 0
    for kernel in kernels:
        for engine in COMPARE_ENGINES:
            for strategy in COMPARE_STRATEGIES:
                listings = []
                for tag, explorer in (("old", old_explorer),
                                      ("new", new_explorer)):
                    path = os.path.join(workdir, "%s.%s.%s.%s.bin" %
                                        (kernel, engine, strategy, tag))
                    run(no_aslr + [explorer, kernel, engine, strategy,
                                   "--code", path])
                    listings.append(comparable_listing(path))
                total_bytes += os.path.getsize(path)
                configs += 1
                old, new = listings
                if old == new:
                    continue
                differing += 1
                at = next((i for i, (a, b) in enumerate(zip(old, new))
                           if a != b), min(len(old), len(new)))
                print("DIFF %s %s %s: %d vs %d items, first at item %d: "
                      "%s | %s" % (kernel, engine, strategy, len(old),
                                   len(new), at,
                                   old[at] if at < len(old) else "(end)",
                                   new[at] if at < len(new) else "(end)"))
    print("%d configs (%d kernels x %d engines x %d strategies), %d new "
          "code bytes: %d differ" %
          (configs, len(kernels), len(COMPARE_ENGINES),
           len(COMPARE_STRATEGIES), total_bytes, differing))
    return 1 if differing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", help="raw JIT code files")
    parser.add_argument("--explorer",
                        help="kernel_explorer binary: audit every suite "
                             "kernel x jit-base x {none, trap, clamp} and "
                             "x jit-opt x {none, trap, clamp}")
    parser.add_argument("--compare", nargs=2,
                        metavar=("OLD_EXPLORER", "NEW_EXPLORER"),
                        help="check that two kernel_explorer binaries emit "
                             "the same code for every suite kernel x "
                             "{jit-base, jit-opt} x every strategy")
    args = parser.parse_args()
    if args.compare:
        if args.files or args.explorer:
            parser.error("--compare takes no other inputs")
        with tempfile.TemporaryDirectory(prefix="jit_compare_") as workdir:
            return compare(args.compare[0], args.compare[1], workdir)
    if not args.files and not args.explorer:
        parser.error("give code files, --explorer or --compare")
    with tempfile.TemporaryDirectory(prefix="jit_audit_") as workdir:
        paths = list(args.files)
        if args.explorer:
            paths += sweep(args.explorer, workdir)
        return audit(paths, workdir)


if __name__ == "__main__":
    sys.exit(main())
