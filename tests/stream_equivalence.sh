#!/usr/bin/env bash
# stream_equivalence — streamed rows are the buffered rows, byte for
# byte. One fig6 --quick request goes through `momsim batch
# --no-timing` three times, each in its own process:
#
#  (1) buffered: one SimResponse carrying every row;
#  (2) with "stream":true: one result-store line per row, then the
#      final SimResponse with the same plan and an empty "rows";
#  (3) with "stream":true from a warm cacheDir, where every row is a
#      disk-cache replay.
#
# Each streamed line, with its "key" removed, must be one of the
# buffered rows, and together the lines must be exactly those rows.
# Streamed rows arrive in completion order, so both sides are sorted
# before the compare.
#
# Usage: stream_equivalence.sh <momsim-binary> <workdir>
set -u

MOMSIM=$1
WORKDIR=${2:-.}
dir="$WORKDIR/stream_equivalence"
rm -rf "$dir"
mkdir -p "$dir"

fail() {
    echo "stream_equivalence: FAIL: $*" >&2
    exit 1
}

req='"schemaVersion":2,"id":"s","bench":"fig6","quick":true,"maxCycles":100000'
cache="\"cacheDir\":\"$dir/cache\""

# run NAME FIELDS — answer {FIELDS} through momsim batch into NAME.out.
run() {
    printf '{%s}\n' "$2" \
        | timeout 300 "$MOMSIM" batch --no-timing \
            > "$dir/$1.out" 2> "$dir/$1.err" \
        || fail "momsim batch ($1) exited $? (see $dir/$1.err)"
}

# The buffered response's rows, one per line, sorted.
buffered_rows() {
    sed -e 's/^.*"rows":\[//' -e 's/\]}$//' -e 's/},{/}\n{/g' "$1" | sort
}

# check_stream NAME — NAME.out is the streamed answer to the request
# whose buffered answer is buffered.out.
check_stream() {
    out="$dir/$1.out"
    total=$(wc -l < "$out")
    [ "$total" -eq $((rows + 1)) ] \
        || fail "$1: $total line(s) for $rows row(s) plus the final response"
    head -n "$rows" "$out" > "$dir/$1.lines"
    grep -qv '^{"key":"[^"]*",' "$dir/$1.lines" \
        && fail "$1: a streamed line is not a store line (see $out)"
    [ "$(sed 's/^{"key":"\([^"]*\)".*/\1/' "$dir/$1.lines" | sort -u | wc -l)" \
        -eq "$rows" ] || fail "$1: streamed keys are not distinct"
    sed 's/^{"key":"[^"]*",/{/' "$dir/$1.lines" | sort > "$dir/$1.rows"
    cmp -s "$dir/buffered.rows" "$dir/$1.rows" \
        || fail "$1: streamed rows differ from the buffered rows" \
                "(see $dir/buffered.rows vs $dir/$1.rows)"
    tail -n 1 "$out" | grep -q '"ok":true,.*"rows":\[\]}$' \
        || fail "$1: final line is not an ok response with empty rows"
}

run buffered "$req"
[ "$(wc -l < "$dir/buffered.out")" -eq 1 ] \
    || fail "buffered run answered more than one line"
grep -q '"ok":true' "$dir/buffered.out" \
    || fail "buffered run failed (see $dir/buffered.out)"
buffered_rows "$dir/buffered.out" > "$dir/buffered.rows"
rows=$(wc -l < "$dir/buffered.rows")
[ "$rows" -gt 1 ] || fail "buffered response carried $rows row(s)"

run streamed "$req,\"stream\":true"
check_stream streamed
# Fresh rows: the final response's plan and timing equal the buffered
# response's, so everything before "rows" matches byte for byte.
[ "$(tail -n 1 "$dir/streamed.out" | sed 's/"rows":.*//')" = \
  "$(sed 's/"rows":.*//' "$dir/buffered.out")" ] \
    || fail "streamed final response differs from the buffered one" \
            "before \"rows\""

run fill "$req,$cache"
run warm "$req,$cache,\"stream\":true"
check_stream warm
warm_plan="\"plan\":{\"total\":$rows,\"cached\":$rows,\"simulated\":0}"
tail -n 1 "$dir/warm.out" | grep -q "$warm_plan" \
    || fail "warm run did not replay every row from the cache"

echo "stream_equivalence: $rows streamed rows (fresh and replayed) equal" \
     "the buffered response's rows byte for byte"
