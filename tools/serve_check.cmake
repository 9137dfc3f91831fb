# Cache-hit determinism check for the tgi_serve campaign engine
# (DESIGN.md §13), run as a CTest script:
#
#   cmake -DTGI_SERVE=<exe> -DOUT=<scratch-dir> [-DFAULTS=<spec>]
#         -P serve_check.cmake
#
# Scenario:
#   1. Cold campaign (workers=2, threads=2, traced) — the truth. Its
#      stderr must report zero cache hits and zero worker failures.
#   2. Warm reruns against the same cache at (workers=0, threads=1),
#      (workers=1, threads=4), (workers=4, threads=8): stdout and the whole
#      output tree (the same file list, every file's bytes) must match the
#      cold run, and stderr must report computed=0 — a cache hit is a
#      byte-identical no-op.
#   3. Corruption: bit-flip one cached record. The next run must
#      quarantine it (WARN on stderr), recompute, and still match.
#   4. Worker kill: against a fresh cache, TGI_SERVE_WORKER_DIE_AFTER
#      SIGKILLs shard 0 after one journaled point. The engine must WARN,
#      bank the partial journal, self-heal in-process, and still produce
#      byte-identical artifacts.
#   5. Worker hang: TGI_SERVE_WORKER_HANG_AFTER stops shard 0 journaling
#      (SIGTERM ignored); the progress watchdog must escalate to SIGKILL,
#      restart over the missing suffix, and stay byte-identical.
#   6. Crash loop: TGI_SERVE_WORKER_IO_FAULTS at rate 1.0 on every
#      attempt makes shard 0 a zero-progress crash loop; the supervisor
#      must quarantine it after the restart budget and heal in-process —
#      and the warm rerun over that healed cache must report computed=0.
#   7. Garbage tail: TGI_SERVE_WORKER_GARBAGE_TAIL appends a torn record
#      and exits 0; trust is journal-driven, so the clean exit still
#      counts as a strike and the torn record is quarantined.
#   Scenarios 4-7 each heal a fresh cache; a warm rerun over it must then
#   report computed=0 and match the cold run. No warm rerun may write a
#   shard: each shard's mtime is pinned to a past time and checked after.
#   8. Two processes race on one fresh cache: each stages in its own
#      scratch, so both exit 0 with the cold run's bytes.
#   9. A workers=0 campaign SIGKILLed mid-entry banked its finished points:
#      the rerun computes only the rest and matches the cold run.
#
# Every run passes stall_polls=2000 so a hung worker is detected in a few
# seconds even under TSan; the knob never reaches stdout, so the byte
# comparisons are unaffected.
if(NOT DEFINED TGI_SERVE OR NOT DEFINED OUT)
  message(FATAL_ERROR "usage: cmake -DTGI_SERVE=<exe> -DOUT=<dir> "
                      "[-DFAULTS=<spec>] -P serve_check.cmake")
endif()

include(${CMAKE_CURRENT_LIST_DIR}/check_common.cmake)

# Two entries over the same cluster/seed but different sweep lists —
# distinct cache keys, one shared reference. beta's `granularity = point`
# is inert (there is one execution path); it stays parseable until the key
# is deleted.
set(campaign_text "# serve_check campaign\n[alpha]\ncluster = fire\nsweep = 16,48,80\nseed = 7\nmeter = wattsup\n")
if(DEFINED FAULTS AND NOT FAULTS STREQUAL "")
  string(APPEND campaign_text "faults = ${FAULTS}\n")
endif()
string(APPEND campaign_text "\n[beta]\ncluster = fire\nsweep = 16,48\nseed = 7\nmeter = wattsup\ngranularity = point\n")
if(DEFINED FAULTS AND NOT FAULTS STREQUAL "")
  string(APPEND campaign_text "faults = ${FAULTS}\n")
endif()
file(WRITE "${OUT}/campaign.conf" "${campaign_text}")

# Runs one campaign; captures stdout/stderr for the byte comparisons. The
# report stream carries entry names, never paths, so no normalization is
# needed — stdout must match byte for byte as-is.
function(run_campaign outdir cache workers threads)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${ARGN}
            ${TGI_SERVE} campaign=${OUT}/campaign.conf cache=${cache}
            outdir=${outdir} workers=${workers} threads=${threads} trace=1
            stall_polls=2000
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "tgi_serve failed (workers=${workers}, threads=${threads}, "
            "rc=${rc}): ${err}")
  endif()
  file(WRITE "${outdir}.stdout" "${out}")
  file(WRITE "${outdir}.stderr" "${err}")
endfunction()

# Asserts outdir's stdout matches the cold campaign's, and its output tree
# has the cold tree's file list with every file byte-identical.
# provenance.json records this run's cache and supervision stats by design
# and is the one exempt file.
function(expect_matches_cold outdir)
  expect_identical("${OUT}/cold.stdout" "${outdir}.stdout")
  file(GLOB_RECURSE cold_files RELATIVE "${OUT}/cold" "${OUT}/cold/*")
  file(GLOB_RECURSE files RELATIVE "${outdir}" "${outdir}/*")
  list(REMOVE_ITEM cold_files provenance.json)
  list(REMOVE_ITEM files provenance.json)
  if(cold_files STREQUAL "")
    message(FATAL_ERROR "no artifacts under ${OUT}/cold")
  endif()
  if(NOT files STREQUAL cold_files)
    message(FATAL_ERROR "file list of ${outdir} differs from the cold run's:"
                        "\n  ${files}\nvs\n  ${cold_files}")
  endif()
  foreach(a ${cold_files})
    expect_identical("${OUT}/cold/${a}" "${outdir}/${a}")
  endforeach()
endfunction()

# A warm rerun over `cache` recomputes nothing, writes no shard, and
# matches the cold campaign.
function(expect_warm_noop outdir cache workers threads)
  pin_shard_mtimes("${cache}")
  run_campaign("${outdir}" "${cache}" ${workers} ${threads})
  expect_matches_cold("${outdir}")
  expect_stderr_mentions("${outdir}" " computed=0")
  expect_shards_unwritten("${cache}")
endfunction()

# 1. Cold campaign: all 5 sweep points and alpha's reference computed;
# beta's identical reference machine is already a hit within the SAME cold
# run — cross-entry dedup through the cache.
run_campaign("${OUT}/cold" "${OUT}/cache" 2 2)
expect_stderr_mentions("${OUT}/cold" "hits=1 computed=6")
expect_stderr_mentions("${OUT}/cold" "worker_failures=0")
if(NOT EXISTS "${OUT}/cold/provenance.json")
  message(FATAL_ERROR "cold campaign left no provenance.json")
endif()

# 2. Warm reruns: zero recomputation, byte-identical at every worker and
# thread count, and not one shard rewritten.
foreach(wt "0;1" "1;4" "4;8")
  list(GET wt 0 workers)
  list(GET wt 1 threads)
  expect_warm_noop("${OUT}/warm_w${workers}_t${threads}" "${OUT}/cache"
                   ${workers} ${threads})
endforeach()

# 3. Corruption: flip a byte inside the last record of one cache shard;
# the engine must quarantine it, recompute only that point, and still
# match.
file(GLOB shards "${OUT}/cache/*.tgij")
list(GET shards 0 shard)
file(READ "${shard}" shard_text)
string(FIND "${shard_text}" "\nTGIJ1 point" last_rec REVERSE)
if(last_rec EQUAL -1)
  message(FATAL_ERROR "cache shard ${shard} has no point records")
endif()
math(EXPR split "${last_rec} + 1")
string(SUBSTRING "${shard_text}" 0 ${split} prefix)
string(SUBSTRING "${shard_text}" ${split} -1 last_line)
file(WRITE "${shard}" "${prefix}x${last_line}")
run_campaign("${OUT}/healed" "${OUT}/cache" 2 2)
expect_matches_cold("${OUT}/healed")
expect_stderr_mentions("${OUT}/healed" "cache: quarantined entry")

# 4. Worker kill: fresh cache; shard 0 of each entry dies after one
# journaled point. The engine banks the partial journals, recomputes the
# rest in-process, and the artifacts still match.
run_campaign("${OUT}/killed" "${OUT}/cache_killed" 2 2
             "TGI_SERVE_WORKER_DIE_AFTER=0:1")
expect_matches_cold("${OUT}/killed")
expect_stderr_mentions("${OUT}/killed" "died (signal 9")
expect_stderr_mentions("${OUT}/killed" "merging its partial journal")
expect_warm_noop("${OUT}/killed_warm" "${OUT}/cache_killed" 0 1)

# 5. Worker hang: shard 0 stops journaling after one point and ignores
# SIGTERM; the progress watchdog must escalate to SIGKILL and the restart
# recomputes only the missing suffix.
run_campaign("${OUT}/hung" "${OUT}/cache_hung" 2 2
             "TGI_SERVE_WORKER_HANG_AFTER=0:1")
expect_matches_cold("${OUT}/hung")
expect_stderr_mentions("${OUT}/hung" "hung (no journal growth")
expect_stderr_mentions("${OUT}/hung" "SIGTERM escalated to SIGKILL")
expect_stderr_mentions("${OUT}/hung" "restarting (attempt 2")
expect_warm_noop("${OUT}/hung_warm" "${OUT}/cache_hung" 0 1)

# 6. Crash loop: every attempt's journal write faults (attempts=99 covers
# the whole restart budget), so shard 0 makes zero progress, is
# quarantined, and its points fall back to in-process compute.
run_campaign("${OUT}/looped" "${OUT}/cache_looped" 2 2
             "TGI_SERVE_WORKER_IO_FAULTS=0:1.0:99")
expect_matches_cold("${OUT}/looped")
expect_stderr_mentions("${OUT}/looped" "quarantined after")
expect_stderr_mentions("${OUT}/looped" "fall back to in-process compute")
expect_warm_noop("${OUT}/looped_warm" "${OUT}/cache_looped" 0 1)

# 7. Garbage tail: shard 0 appends a torn record and exits 0. Trust is
# journal-driven — the clean exit with an incomplete journal is a strike,
# and the torn record is quarantined rather than merged.
run_campaign("${OUT}/garbage" "${OUT}/cache_garbage" 2 2
             "TGI_SERVE_WORKER_GARBAGE_TAIL=0:1")
expect_matches_cold("${OUT}/garbage")
expect_stderr_mentions("${OUT}/garbage" "quarantined worker record")
expect_stderr_mentions("${OUT}/garbage" "clean exit but")
expect_warm_noop("${OUT}/garbage_warm" "${OUT}/cache_garbage" 0 1)

# 8. Two processes race on one fresh cache. execute_process can only pipe
# children into each other, so a POSIX shell starts both and waits for
# each.
execute_process(
  COMMAND sh -c [[
    out="$1"; shift
    "$@" outdir="$out/race1" > "$out/race1.stdout" 2> "$out/race1.stderr" &
    first=$!
    "$@" outdir="$out/race2" > "$out/race2.stdout" 2> "$out/race2.stderr"
    second=$?
    wait "$first" && [ "$second" -eq 0 ]
  ]] sh "${OUT}" ${TGI_SERVE} campaign=${OUT}/campaign.conf
     cache=${OUT}/cache_race workers=0 threads=2 trace=1 stall_polls=2000
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "racing campaigns on one cache failed (rc=${rc})")
endif()
foreach(r race1 race2)
  expect_matches_cold("${OUT}/${r}")
endforeach()

# 9. An attempt the campaign outran (it finished, or alpha's shard held
# all 3 points before the kill) is retried.
file(READ "${OUT}/cold/provenance.json" provenance)
string(JSON alpha_spec GET "${provenance}" entries 0 spec)
set(cache "${OUT}/cache_inproc")
set(shard "${cache}/${alpha_spec}.tgij")
foreach(attempt RANGE 1 10)
  file(REMOVE_RECURSE "${cache}")
  kill_after_first_record(rc "${shard}" ${TGI_SERVE}
    campaign=${OUT}/campaign.conf cache=${cache} outdir=${OUT}/inproc_killed
    workers=0 threads=1 trace=1 stall_polls=2000)
  set(banked 0)
  if(EXISTS "${shard}")
    # Complete point lines only: a record torn by the kill has no newline.
    file(READ "${shard}" shard_text)
    string(REGEX MATCHALL "TGIJ1 point[^\n]*\n" lines "${shard_text}")
    list(LENGTH lines banked)
  endif()
  if(rc EQUAL 137 AND banked GREATER 0 AND banked LESS 3)
    break()
  endif()
endforeach()
if(NOT rc EQUAL 137 OR banked EQUAL 0 OR NOT banked LESS 3)
  message(FATAL_ERROR "expected tgi_serve SIGKILLed (status 137) with 1-2 "
                      "points banked, got status ${rc} with ${banked}")
endif()
# Cold: 5 sweep points + alpha's reference computed, beta's reference a hit.
math(EXPR computed "6 - ${banked}")
math(EXPR hits "1 + ${banked}")
run_campaign("${OUT}/inproc_resumed" "${cache}" 0 1)
expect_matches_cold("${OUT}/inproc_resumed")
expect_stderr_mentions("${OUT}/inproc_resumed"
                       " hits=${hits} computed=${computed} ")

message(STATUS "campaign cache-hit determinism OK (${OUT})")
