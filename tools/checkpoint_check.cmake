# Kill-and-rerun determinism check for tgi_sweep checkpoint=DIR
# (DESIGN.md §11), run as a CTest script:
#
#   cmake -DTGI_SWEEP=<exe> -DOUT=<scratch-dir> [-DFAULTS=<spec>]
#         -P checkpoint_check.cmake
#
# A checkpoint directory is a result cache: the sweep's points live in
# DIR/<spec>.tgij, <spec> being entries[0].spec of the run's
# provenance.json (the reference run has a shard of its own beside it).
# Scenario:
#   1. Uninterrupted baseline run (threads=2, traced) — the truth.
#   2. Checkpointed full run — stdout and every CSV must match the
#      baseline byte for byte (journaling is observational). Rerun over the
#      same directory, it must compute nothing (computed=0 on stderr),
#      match the baseline again and write no shard: every shard's mtime is
#      pinned to a fixed past time before the rerun and still reads it
#      after.
#   3. "Kill": truncate the shard after two records, tearing the third
#      mid-line. Rerun at threads=1/4/8 — stdout, CSVs, and trace.json
#      must all match the baseline byte for byte, stderr must report the
#      torn record as quarantined and two points served, and the completed
#      shard must equal the full run's byte for byte.
#   4. Corruption: damage the FIRST point record. The rerun must quarantine
#      it (stderr says so), recompute it — appended after the three
#      survivors — and still match; only the republish in index order makes
#      the completed shard equal the full run's, which is required.
#   5. A real SIGKILL: a checkpointed run at threads=1 is stepped with
#      SIGSTOP/SIGCONT until its shard holds a point record, then killed
#      with SIGKILL while still running. A rerun at threads=8 must match
#      the baseline, and its completed shard the full run's, byte for byte.
#   6. Exact keys (fault-free invocation only): a directory filled for
#      greenblade with cpu.ghz = 0.85 (as sweep and reference cluster) is
#      reused for the same file with cpu.ghz = 0.8500004, and one filled
#      under faults=failure=0.1 for failure=0.1000001. Each rerun must
#      compute every point its new spec changes — all 9 for the cluster,
#      the 8 sweep points for the fault rate (the reference run has no
#      fault plane) — and write stdout and CSVs equal to a fresh run's.
if(NOT DEFINED TGI_SWEEP OR NOT DEFINED OUT)
  message(FATAL_ERROR "usage: cmake -DTGI_SWEEP=<exe> -DOUT=<dir> "
                      "[-DFAULTS=<spec>] -P checkpoint_check.cmake")
endif()

include(${CMAKE_CURRENT_LIST_DIR}/check_common.cmake)

set(common sweep=16,48,80,128 meter=wattsup seed=7)
if(DEFINED FAULTS AND NOT FAULTS STREQUAL "")
  list(APPEND common faults=${FAULTS})
endif()

# Runs one sweep; captures stdout into ${outdir}.stdout and stderr into
# ${outdir}.stderr for the byte comparisons below. The output directory
# name appears in the "wrote ..." lines, so it is normalized to OUTDIR —
# everything else must match byte for byte.
function(run_sweep outdir threads)
  execute_process(
    COMMAND ${TGI_SWEEP} ${common} threads=${threads} outdir=${outdir}
            trace=${outdir}_trace ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "tgi_sweep failed (threads=${threads}, rc=${rc}): ${err}")
  endif()
  string(REPLACE "${outdir}" "OUTDIR" out "${out}")
  file(WRITE "${outdir}.stdout" "${out}")
  file(WRITE "${outdir}.stderr" "${err}")
endfunction()

# Asserts outdir's stdout, every baseline CSV, and trace.json match the
# uninterrupted baseline byte for byte.
function(expect_matches_baseline outdir)
  expect_identical("${OUT}/base.stdout" "${outdir}.stdout")
  file(GLOB csvs RELATIVE "${OUT}/base" "${OUT}/base/*.csv")
  if(csvs STREQUAL "")
    message(FATAL_ERROR "no result CSVs under ${OUT}/base")
  endif()
  foreach(c ${csvs})
    expect_identical("${OUT}/base/${c}" "${outdir}/${c}")
  endforeach()
  foreach(f trace.json metrics.csv)
    expect_identical("${OUT}/base_trace/${f}" "${outdir}_trace/${f}")
  endforeach()
endfunction()

# 1. Uninterrupted baseline.
run_sweep("${OUT}/base" 2)

# 2. Checkpointed full run is observational, and a rerun replays it whole.
run_sweep("${OUT}/full" 2 "checkpoint=${OUT}/ckpt_full")
expect_matches_baseline("${OUT}/full")
file(READ "${OUT}/full/provenance.json" provenance)
string(JSON spec GET "${provenance}" entries 0 spec)
set(journal "${OUT}/ckpt_full/${spec}.tgij")
if(NOT EXISTS "${journal}")
  message(FATAL_ERROR "checkpointed run left no shard at ${journal}")
endif()
file(READ "${journal}" full_journal)
execute_process(COMMAND ${CMAKE_COMMAND} -E copy "${journal}"
                "${OUT}/full.tgij")
pin_shard_mtimes("${OUT}/ckpt_full")
run_sweep("${OUT}/replay" 4 "checkpoint=${OUT}/ckpt_full")
expect_matches_baseline("${OUT}/replay")
expect_stderr_mentions("${OUT}/replay" " computed=0 ")
expect_identical("${OUT}/full.tgij" "${journal}")
expect_shards_unwritten("${OUT}/ckpt_full")

# 3. Kill-and-rerun: header + two records + the third torn mid-line.
string(REGEX MATCH "^[^\n]*\n[^\n]*\n[^\n]*\n" keep "${full_journal}")
if(keep STREQUAL "")
  message(FATAL_ERROR "journal has fewer than three lines")
endif()
string(LENGTH "${keep}" keep_len)
string(SUBSTRING "${full_journal}" ${keep_len} 40 torn_tail)
foreach(t 1 4 8)
  set(ckpt "${OUT}/ckpt_t${t}")
  file(MAKE_DIRECTORY "${ckpt}")
  file(WRITE "${ckpt}/${spec}.tgij" "${keep}${torn_tail}")
  run_sweep("${OUT}/resume_t${t}" ${t} "checkpoint=${ckpt}")
  expect_matches_baseline("${OUT}/resume_t${t}")
  expect_stderr_mentions("${OUT}/resume_t${t}" "cache: quarantined entry")
  expect_stderr_mentions("${OUT}/resume_t${t}" " hits=2 computed=3 ")
  expect_identical("${OUT}/full.tgij" "${ckpt}/${spec}.tgij")
endforeach()

# 4. Corrupted record: inject a stray byte into the first point record so
# its line no longer parses; the rerun must quarantine and recompute it.
string(FIND "${full_journal}" "\nTGIJ2 point" first_rec)
if(first_rec EQUAL -1)
  message(FATAL_ERROR "journal has no point records")
endif()
math(EXPR split "${first_rec} + 1")
string(SUBSTRING "${full_journal}" 0 ${split} header)
string(SUBSTRING "${full_journal}" ${split} -1 points)
set(ckpt "${OUT}/ckpt_corrupt")
file(MAKE_DIRECTORY "${ckpt}")
file(WRITE "${ckpt}/${spec}.tgij" "${header}x${points}")
run_sweep("${OUT}/resume_corrupt" 2 "checkpoint=${ckpt}")
expect_matches_baseline("${OUT}/resume_corrupt")
expect_stderr_mentions("${OUT}/resume_corrupt" "cache: quarantined entry")
expect_stderr_mentions("${OUT}/resume_corrupt" " hits=3 computed=2 ")
expect_identical("${OUT}/full.tgij" "${ckpt}/${spec}.tgij")

# 5. SIGKILL a running sweep once its shard holds a point record
# (kill_after_first_record); an attempt the sweep outran is retried.
set(ckpt "${OUT}/ckpt_kill")
foreach(attempt RANGE 1 10)
  file(REMOVE_RECURSE "${ckpt}")
  kill_after_first_record(rc "${ckpt}/${spec}.tgij" ${TGI_SWEEP} ${common}
    threads=1 outdir=${OUT}/killed trace=${OUT}/killed_trace
    checkpoint=${ckpt})
  if(NOT rc EQUAL 0)
    break()
  endif()
endforeach()
file(STRINGS "${ckpt}/${spec}.tgij" killed_points REGEX "^TGIJ2 point")
if(NOT rc EQUAL 137 OR killed_points STREQUAL "")
  message(FATAL_ERROR "expected tgi_sweep SIGKILLed (status 137) after a "
                      "journaled point; got status ${rc}")
endif()
run_sweep("${OUT}/resume_killed" 8 "checkpoint=${ckpt}")
expect_matches_baseline("${OUT}/resume_killed")
expect_identical("${OUT}/full.tgij" "${ckpt}/${spec}.tgij")

# 6. Specs that differ past a 6th digit get shards of their own.
function(run_plain outdir)
  execute_process(COMMAND ${TGI_SWEEP} seed=7 outdir=${outdir} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tgi_sweep failed (rc=${rc}): ${err}")
  endif()
  string(REPLACE "${outdir}" "OUTDIR" out "${out}")
  file(WRITE "${outdir}.stdout" "${out}")
  file(WRITE "${outdir}.stderr" "${err}")
endfunction()

# Fills DIR under `first`, reruns `second` over it, and requires stderr to
# mention `counts` and the rerun to equal a fresh `second` run.
function(expect_own_shard name first second counts)
  set(dir "${OUT}/keys_${name}")
  run_plain("${dir}_filled" ${first} checkpoint=${dir})
  run_plain("${dir}_reused" ${second} checkpoint=${dir})
  expect_stderr_mentions("${dir}_reused" "${counts}")
  run_plain("${dir}_fresh" ${second})
  expect_identical("${dir}_fresh.stdout" "${dir}_reused.stdout")
  file(GLOB csvs RELATIVE "${dir}_fresh" "${dir}_fresh/*.csv")
  foreach(c ${csvs})
    expect_identical("${dir}_fresh/${c}" "${dir}_reused/${c}")
  endforeach()
endfunction()

if(NOT DEFINED FAULTS OR FAULTS STREQUAL "")
  file(READ "${CMAKE_CURRENT_LIST_DIR}/../clusters/greenblade.conf" blade)
  string(REGEX REPLACE "\ncpu[.]ghz = [^\n]*" "\ncpu.ghz = 0.85" a "${blade}")
  string(REGEX REPLACE "\ncpu[.]ghz = [^\n]*" "\ncpu.ghz = 0.8500004" b
                       "${blade}")
  if(a STREQUAL blade AND b STREQUAL blade)
    message(FATAL_ERROR "greenblade.conf has no cpu.ghz line")
  endif()
  file(WRITE "${OUT}/a.conf" "${a}")
  file(WRITE "${OUT}/b.conf" "${b}")
  expect_own_shard(cluster
    "cluster=${OUT}/a.conf;reference_cluster=${OUT}/a.conf"
    "cluster=${OUT}/b.conf;reference_cluster=${OUT}/b.conf"
    " hits=0 computed=9 ")
  expect_own_shard(faults "faults=failure=0.1" "faults=failure=0.1000001"
    " hits=1 computed=8 ")
endif()

message(STATUS "checkpoint kill-and-rerun determinism OK (${OUT})")
