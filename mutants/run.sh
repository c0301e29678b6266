#!/bin/sh
# Mutation net: applies each mutant in mutants/list.txt to a copy of the
# tree and requires every test the entry names to fail on it.
#
#   mutants/run.sh            run every mutant
#   mutants/run.sh --check    only check that every needle matches
#                             exactly once (no build; ci.sh runs this)
#
# For each mutant the tree is tar-copied (without target/ and .git/) to
# target/mutants/tree, the mutant is applied there, and `cargo test` runs
# only the named tests, with one CARGO_TARGET_DIR (target/mutants/target)
# shared by every mutant. The copy keeps its path from mutant to mutant,
# so incremental compilation carries over. Exits nonzero if a needle does
# not match exactly once, a mutant does not build, or a named test passes
# on its mutant (the mutant survives).
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
list="$root/mutants/list.txt"
work="$root/target/mutants"

case "$*" in
'') check_only=0 ;;
--check) check_only=1 ;;
*)
    echo "usage: mutants/run.sh [--check]" >&2
    exit 2
    ;;
esac

# Applies the needle/replace pairs in $pairs (a file of alternating
# lines) to file $1 in place. Fails, naming the needle, unless each
# needle occurs exactly once in the file as the earlier pairs left it.
apply_pairs() {
    target=$1
    while IFS= read -r needle && IFS= read -r repl; do
        NEEDLE=$needle REPL=$repl awk '
            BEGIN { n = ENVIRON["NEEDLE"]; r = ENVIRON["REPL"] }
            {
                line = $0; out = ""
                while ((i = index(line, n)) > 0) {
                    count++
                    out = out substr(line, 1, i - 1) r
                    line = substr(line, i + length(n))
                }
                print out line
            }
            END { exit count == 1 ? 0 : 3 }
        ' "$target" > "$target.mutant" || {
            rm -f "$target.mutant"
            echo "mutant $name: needle does not match exactly once: $needle" >&2
            return 1
        }
        mv "$target.mutant" "$target"
    done < "$pairs"
}

# Runs (or, under --check, only applies to a scratch copy) the mutant
# parsed into $name, $file, $pairs, $selector and $kills.
run_mutant() {
    if [ -z "$file" ] || [ ! -s "$pairs" ] || [ -z "$selector" ] || [ -z "$kills" ]; then
        echo "mutant $name: needs a file, a needle, a cargo selector and tests" >&2
        return 1
    fi
    if [ ! -f "$root/$file" ]; then
        echo "mutant $name: no file $file" >&2
        return 1
    fi
    if [ "$check_only" -eq 1 ]; then
        cp "$root/$file" "$work/check.rs"
        apply_pairs "$work/check.rs" || return 1
        return 0
    fi
    start=$(date +%s)
    rm -rf "$work/tree"
    mkdir -p "$work/tree"
    (cd "$root" && tar -cf - --exclude=./target --exclude=./.git \
        --exclude=./servebench/target --exclude=./.bench_build .) |
        (cd "$work/tree" && tar -xmf -)
    apply_pairs "$work/tree/$file" || return 1
    # shellcheck disable=SC2086 # the selector and test names are word lists
    if ! (cd "$work/tree" && cargo test --offline -q $selector --no-run) \
        > "$work/$name.log" 2>&1; then
        echo "mutant $name: does not build (see target/mutants/$name.log)" >&2
        return 1
    fi
    # shellcheck disable=SC2086
    (cd "$work/tree" && cargo test --offline $selector -- --exact $kills) \
        >> "$work/$name.log" 2>&1 || true
    survivors=""
    for test in $kills; do
        grep -q "^test $test \.\.\. FAILED$" "$work/$name.log" || survivors="$survivors $test"
    done
    secs=$(($(date +%s) - start))
    if [ -n "$survivors" ]; then
        echo "SURVIVED $name (${secs}s): passed$survivors" >&2
        return 1
    fi
    echo "killed   $name (${secs}s)"
}

mkdir -p "$work"
export CARGO_TARGET_DIR="$work/target"
pairs="$work/pairs"
failed=0
total=0
name=""

# Runs the mutant parsed so far, if any.
flush() {
    [ -n "$name" ] || return 0
    total=$((total + 1))
    run_mutant || failed=$((failed + 1))
}

# The list is read on descriptor 3 and every command the runner starts
# gets /dev/null as stdin, so nothing it runs can swallow list entries.
exec 3< "$list"
while IFS= read -r line <&3 || [ -n "$line" ]; do
    case $line in
    'mutant '*)
        flush
        name=${line#mutant }
        file=""
        selector=""
        kills=""
        : > "$pairs"
        ;;
    'file '*) file=${line#file } ;;
    'needle '*) printf '%s\n' "${line#needle }" >> "$pairs" ;;
    'replace '* | replace) printf '%s\n' "${line#replace}" | sed 's/^ //' >> "$pairs" ;;
    'cargo '*) selector=${line#cargo } ;;
    'kills '*) kills="$kills ${line#kills }" ;;
    '' | '#'*) ;;
    *)
        echo "mutants/list.txt: cannot parse: $line" >&2
        exit 2
        ;;
    esac
done < /dev/null
exec 3<&-
flush < /dev/null

if [ "$check_only" -eq 1 ]; then
    echo "$total mutants: $((total - failed)) apply, $failed do not"
else
    echo "$total mutants: $((total - failed)) killed, $failed survived or broke"
fi
[ "$failed" -eq 0 ]
