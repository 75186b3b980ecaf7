#!/usr/bin/env bash
# kernel-codegen guard: the AVX2 kernel instantiations must be code-generated
# *inside* `eutectica_simd::avx2_entry`, the `#[target_feature]` wrapper of
# `eutectica_simd::dispatch` — one generic fn, so every dispatched kernel
# (cellwise / four-cell φ, four-cell µ, the AoS layout ablation, the
# peak-FLOP probe, the rsqrt ablation) is an instance of that one symbol.
#
# A closure (and so every `core::array::from_fn` callback) is its own LLVM
# function and does not inherit the wrapper's features. Left out of line, it
# compiles featureless and each `_mm256_*` intrinsic inside it becomes a real
# call with operands through memory (PR 8 measured ~20x on one such chain,
# PR 12 2-8x on the staggered-buffer prefill). Two symptoms are checked on
# every given release binary that exists:
#
#  1. a text symbol `core::core_arch::x86::{avx,avx2,fma}::_mm256*`: an
#     out-of-line AVX intrinsic exists only if featureless code calls it. In
#     the default build only `avx2_entry` instantiates the AVX2 backend, so
#     the correct count is zero (`_xgetbv` of the feature detection does not
#     match the pattern);
#  2. a call from an `avx2_entry` instance to a `{{closure}}` of the
#     kernels, of `blockgrid::field` (the slab-level path of PR 16 reads the
#     fields' constant-slab summary and takes `comps_mut_below` inside the
#     wrapper: `kernels::pure_phase_of`, the zone decision and the accessors
#     must inline whole, closure-free) or of `perfmodel::roofline`, or to a
#     `core::array::try_from_fn` instance that itself calls an x86
#     intrinsic.
#
# usage: kernel-codegen.sh [binary ...]
set -euo pipefail

if [ "$#" -eq 0 ]; then
    set -- target/release/fig7_intranode target/release/roofline_analysis \
        benchmark/target/release/perf_ledger
fi

status=0
checked=0
for bin in "$@"; do
    if [ ! -x "$bin" ]; then
        echo "kernel-codegen: $bin: not built, skipped"
        continue
    fi
    checked=$((checked + 1))

    stray=$(nm -C "$bin" | grep -E ' [tT] core::core_arch::x86::(avx|avx2|fma)::_mm256' || true)

    calls=$(objdump -d -C --no-show-raw-insn "$bin" | awk '
        /^[0-9a-f]+ <.*>:$/ {
            fn = $0; sub(/^[0-9a-f]+ </, "", fn); sub(/>:$/, "", fn)
            addr = $1; sub(/^0+/, "", addr)
            in_entry = fn ~ /^eutectica_simd::avx2_entry$/
            in_from_fn = fn ~ /core::array::try_from_fn/
            next
        }
        /\tcall / {
            if (in_from_fn && $0 ~ /core::core_arch::x86/) bad_from_fn[addr] = 1
            if (in_entry && $0 ~ /(kernels|blockgrid::field|roofline)::.*[{][{]closure[}][}]/) print fn " -> " $NF
            if (in_entry && $0 ~ /core::array::try_from_fn/) {
                callee = $(NF - 1); from_fn_calls[fn " " callee]++
            }
        }
        END {
            for (k in from_fn_calls) {
                split(k, p, " ")
                if (p[2] in bad_from_fn)
                    print p[1] " -> core::array::try_from_fn@" p[2] " (calls an intrinsic) x" from_fn_calls[k]
            }
        }')

    n_stray=$(printf '%s' "$stray" | grep -c . || true)
    n_calls=$(printf '%s' "$calls" | grep -c . || true)
    echo "kernel-codegen: $bin: $n_stray out-of-line AVX intrinsic symbol(s), $n_calls featureless kernel call site(s)"
    if [ "$n_stray" -ne 0 ] || [ "$n_calls" -ne 0 ]; then
        [ -n "$stray" ] && printf '%s\n' "$stray" | sed 's/^/    symbol: /'
        [ -n "$calls" ] && printf '%s\n' "$calls" | sort | uniq -c | sed 's/^/    call:  /'
        status=1
    fi
done

if [ "$checked" -eq 0 ]; then
    echo "kernel-codegen: no binary to check (run cargo build --release first)" >&2
    exit 2
fi
if [ "$status" -ne 0 ]; then
    echo "kernel-codegen: FAILED - a closure or from_fn callback touches a SIMD vector inside a kernel;" >&2
    echo "  make it an #[inline(always)] generic fn / per_phase! (see eutectica_simd::IsaGeneric::run)" >&2
fi
exit "$status"
