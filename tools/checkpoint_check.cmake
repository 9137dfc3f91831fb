# Kill-and-resume determinism check for tgi_sweep --checkpoint/--resume
# (DESIGN.md §11), run as a CTest script:
#
#   cmake -DTGI_SWEEP=<exe> -DOUT=<scratch-dir> [-DFAULTS=<spec>]
#         -P checkpoint_check.cmake
#
# Scenario:
#   1. Uninterrupted baseline run (threads=2, traced) — the truth.
#   2. Checkpointed full run — stdout and every CSV must match the
#      baseline byte for byte (journaling is observational).
#   3. "Kill": truncate the journal after two records, tearing the third
#      mid-line. Resume at threads=1/4/8 — stdout, CSVs, and trace.json
#      must all match the baseline byte for byte, stderr must report the
#      torn record as quarantined, and the completed journal must equal
#      the full run's byte for byte (published in index order at any
#      thread count).
#   4. Corruption: damage the last record of a complete journal. Resume
#      must quarantine it (stderr says so), recompute, and still match.
#   5. A real SIGKILL: a checkpointed run at threads=1 is stepped with
#      SIGSTOP/SIGCONT until its journal holds a point record, then killed
#      with SIGKILL while still running. Resume at threads=8 must match the
#      baseline, and its completed journal the full run's, byte for byte.
if(NOT DEFINED TGI_SWEEP OR NOT DEFINED OUT)
  message(FATAL_ERROR "usage: cmake -DTGI_SWEEP=<exe> -DOUT=<dir> "
                      "[-DFAULTS=<spec>] -P checkpoint_check.cmake")
endif()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

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

function(expect_identical a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "byte mismatch: ${a} vs ${b}")
  endif()
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

function(expect_stderr_mentions outdir needle)
  file(READ "${outdir}.stderr" err)
  string(FIND "${err}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "expected stderr of ${outdir} to mention '${needle}', got: "
            "${err}")
  endif()
endfunction()

# 1. Uninterrupted baseline.
run_sweep("${OUT}/base" 2)

# 2. Checkpointed full run is observational.
run_sweep("${OUT}/full" 2 "checkpoint=${OUT}/ckpt_full")
expect_matches_baseline("${OUT}/full")
set(journal "${OUT}/ckpt_full/journal.tgij")
if(NOT EXISTS "${journal}")
  message(FATAL_ERROR "checkpointed run left no journal at ${journal}")
endif()
file(READ "${journal}" full_journal)

# 3. Kill-and-resume: header + two records + the third torn mid-line.
string(REGEX MATCH "^[^\n]*\n[^\n]*\n[^\n]*\n" keep "${full_journal}")
if(keep STREQUAL "")
  message(FATAL_ERROR "journal has fewer than three lines")
endif()
string(LENGTH "${keep}" keep_len)
string(SUBSTRING "${full_journal}" ${keep_len} 40 torn_tail)
foreach(t 1 4 8)
  set(ckpt "${OUT}/ckpt_t${t}")
  file(MAKE_DIRECTORY "${ckpt}")
  file(WRITE "${ckpt}/journal.tgij" "${keep}${torn_tail}")
  run_sweep("${OUT}/resume_t${t}" ${t} "checkpoint=${ckpt}" "resume=1")
  expect_matches_baseline("${OUT}/resume_t${t}")
  expect_stderr_mentions("${OUT}/resume_t${t}"
                         "checkpoint: quarantined journal record")
  expect_identical("${journal}" "${ckpt}/journal.tgij")
  if(NOT EXISTS "${ckpt}/resume.json")
    message(FATAL_ERROR "resume left no resume.json in ${ckpt}")
  endif()
endforeach()

# 4. Corrupted record: inject a stray byte into the last record so its
# line no longer parses; resume must quarantine and recompute it.
string(FIND "${full_journal}" "\nTGIJ1 point" last_rec REVERSE)
if(last_rec EQUAL -1)
  message(FATAL_ERROR "journal has no point records")
endif()
math(EXPR split "${last_rec} + 1")
string(SUBSTRING "${full_journal}" 0 ${split} prefix)
string(SUBSTRING "${full_journal}" ${split} -1 last_line)
set(ckpt "${OUT}/ckpt_corrupt")
file(MAKE_DIRECTORY "${ckpt}")
file(WRITE "${ckpt}/journal.tgij" "${prefix}x${last_line}")
run_sweep("${OUT}/resume_corrupt" 2 "checkpoint=${ckpt}" "resume=1")
expect_matches_baseline("${OUT}/resume_corrupt")
expect_stderr_mentions("${OUT}/resume_corrupt"
                       "checkpoint: quarantined journal record")

# 5. SIGKILL a running sweep. CMake cannot signal a child, so a POSIX shell
# does: it stops the sweep at once, then lets it run in short slices until
# a point record is journaled, and kills it stopped, so the shell's wait
# reports signal 9 (status 137). On a loaded host the sweep can outrun the
# shell and finish first (status 0); that attempt is discarded and retried.
set(ckpt "${OUT}/ckpt_kill")
foreach(attempt RANGE 1 10)
  file(REMOVE_RECURSE "${ckpt}")
  execute_process(
    COMMAND sh -c [[
      journal="$1"; shift
      "$@" > /dev/null 2>&1 &
      pid=$!
      kill -STOP "$pid"
      i=0
      until grep -qs '^TGIJ1 point' "$journal" || [ "$i" -ge 50000 ]; do
        i=$((i + 1))
        kill -CONT "$pid"
        n=0; while [ "$n" -lt 20 ]; do n=$((n + 1)); done
        kill -STOP "$pid"
      done
      kill -KILL "$pid"
      wait "$pid"
    ]] sh "${ckpt}/journal.tgij" ${TGI_SWEEP} ${common} threads=1
       outdir=${OUT}/killed trace=${OUT}/killed_trace checkpoint=${ckpt}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    break()
  endif()
endforeach()
file(STRINGS "${ckpt}/journal.tgij" killed_points REGEX "^TGIJ1 point")
if(NOT rc EQUAL 137 OR killed_points STREQUAL "")
  message(FATAL_ERROR "expected tgi_sweep SIGKILLed (status 137) after a "
                      "journaled point; got status ${rc}")
endif()
run_sweep("${OUT}/resume_killed" 8 "checkpoint=${ckpt}" "resume=1")
expect_matches_baseline("${OUT}/resume_killed")
expect_identical("${journal}" "${ckpt}/journal.tgij")

message(STATUS "checkpoint kill-and-resume determinism OK (${OUT})")
