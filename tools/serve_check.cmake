# Cache-hit determinism check for the tgi_serve campaign engine
# (DESIGN.md §13), run as a CTest script:
#
#   cmake -DTGI_SERVE=<exe> -DOUT=<scratch-dir> [-DFAULTS=<spec>]
#         -P serve_check.cmake
#
# Scenario:
#   1. Cold campaign (threads=2, traced) — the truth. Its stderr must
#      report the expected hit and compute counts.
#   2. Warm reruns against the same cache at threads=1, 4 and 8: stdout
#      and the whole output tree (the same file list, every file's bytes)
#      must match the cold run, stderr must report computed=0, and no shard
#      may be written (each shard's mtime is pinned to a past time and
#      checked after) — a cache hit is a byte-identical no-op.
#   3. Corruption: bit-flip one cached record. The next run must
#      quarantine it (WARN on stderr), recompute, and still match.
#   4. Two processes race on one fresh cache: each stages under its own
#      temp names, so both exit 0 with the cold run's bytes.
#   5. A campaign SIGKILLed mid-entry banked its finished points: the
#      rerun computes only the rest and matches the cold run.
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
function(run_campaign outdir cache threads)
  execute_process(
    COMMAND ${TGI_SERVE} campaign=${OUT}/campaign.conf cache=${cache}
            outdir=${outdir} threads=${threads} trace=1
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "tgi_serve failed (threads=${threads}, rc=${rc}): ${err}")
  endif()
  file(WRITE "${outdir}.stdout" "${out}")
  file(WRITE "${outdir}.stderr" "${err}")
endfunction()

# Asserts outdir's stdout matches the cold campaign's, and its output tree
# has the cold tree's file list with every file byte-identical.
# provenance.json records this run's cache stats by design and is the one
# exempt file.
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

# 1. Cold campaign: all 5 sweep points and alpha's reference computed;
# beta's identical reference machine is already a hit within the SAME cold
# run — cross-entry dedup through the cache.
run_campaign("${OUT}/cold" "${OUT}/cache" 2)
expect_stderr_mentions("${OUT}/cold" "hits=1 computed=6")
if(NOT EXISTS "${OUT}/cold/provenance.json")
  message(FATAL_ERROR "cold campaign left no provenance.json")
endif()

# 2. Warm reruns: zero recomputation, byte-identical at every thread
# count, and not one shard rewritten.
foreach(threads 1 4 8)
  set(outdir "${OUT}/warm_t${threads}")
  pin_shard_mtimes("${OUT}/cache")
  run_campaign("${outdir}" "${OUT}/cache" ${threads})
  expect_matches_cold("${outdir}")
  expect_stderr_mentions("${outdir}" " computed=0")
  expect_shards_unwritten("${OUT}/cache")
endforeach()

# 3. Corruption: flip a byte inside the last record of one cache shard;
# the engine must quarantine it, recompute only that point, and still
# match.
file(GLOB shards "${OUT}/cache/*.tgij")
list(GET shards 0 shard)
file(READ "${shard}" shard_text)
string(FIND "${shard_text}" "\nTGIJ2 point" last_rec REVERSE)
if(last_rec EQUAL -1)
  message(FATAL_ERROR "cache shard ${shard} has no point records")
endif()
math(EXPR split "${last_rec} + 1")
string(SUBSTRING "${shard_text}" 0 ${split} prefix)
string(SUBSTRING "${shard_text}" ${split} -1 last_line)
file(WRITE "${shard}" "${prefix}x${last_line}")
run_campaign("${OUT}/healed" "${OUT}/cache" 2)
expect_matches_cold("${OUT}/healed")
expect_stderr_mentions("${OUT}/healed" "cache: quarantined entry")

# 4. Two processes race on one fresh cache. execute_process can only pipe
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
     cache=${OUT}/cache_race threads=2 trace=1
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "racing campaigns on one cache failed (rc=${rc})")
endif()
foreach(r race1 race2)
  expect_matches_cold("${OUT}/${r}")
endforeach()

# 5. A campaign SIGKILLed after its first banked record resumes computing
# only the missing points. An attempt the campaign outran (it finished, or
# alpha's shard held all 3 points before the kill) is retried.
file(READ "${OUT}/cold/provenance.json" provenance)
string(JSON alpha_spec GET "${provenance}" entries 0 spec)
set(cache "${OUT}/cache_killed")
set(shard "${cache}/${alpha_spec}.tgij")
foreach(attempt RANGE 1 10)
  file(REMOVE_RECURSE "${cache}")
  kill_after_first_record(rc "${shard}" ${TGI_SERVE}
    campaign=${OUT}/campaign.conf cache=${cache} outdir=${OUT}/killed
    threads=1 trace=1)
  set(banked 0)
  if(EXISTS "${shard}")
    # Complete point lines only: a record torn by the kill has no newline.
    file(READ "${shard}" shard_text)
    string(REGEX MATCHALL "TGIJ2 point[^\n]*\n" lines "${shard_text}")
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
run_campaign("${OUT}/resumed" "${cache}" 1)
expect_matches_cold("${OUT}/resumed")
expect_stderr_mentions("${OUT}/resumed"
                       " hits=${hits} computed=${computed} ")

message(STATUS "campaign cache-hit determinism OK (${OUT})")
