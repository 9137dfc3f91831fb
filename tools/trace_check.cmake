# Trace-determinism check for tgi_sweep --trace (DESIGN.md §10), run as a
# CTest script:
#
#   cmake -DTGI_SWEEP=<exe> -DOUT=<scratch-dir> [-DFAULTS=<spec>]
#         -P trace_check.cmake
#
# Runs the same traced and profiled sweep at threads=1/2/8 and asserts:
#   1. trace.json and metrics.csv are byte-identical across thread counts
#      (profile.json is wall clock: it must exist, but is never compared);
#   2. every result CSV is byte-identical across thread counts and to an
#      untraced, unprofiled run (tracing and profiling are observational).
if(NOT DEFINED TGI_SWEEP OR NOT DEFINED OUT)
  message(FATAL_ERROR "usage: cmake -DTGI_SWEEP=<exe> -DOUT=<dir> "
                      "[-DFAULTS=<spec>] -P trace_check.cmake")
endif()

include(${CMAKE_CURRENT_LIST_DIR}/check_common.cmake)

set(common sweep=16,48,80 meter=wattsup seed=7)
if(DEFINED FAULTS AND NOT FAULTS STREQUAL "")
  list(APPEND common faults=${FAULTS})
endif()

function(run_sweep outdir trace_args threads)
  execute_process(
    COMMAND ${TGI_SWEEP} ${common} threads=${threads} outdir=${outdir}
            ${trace_args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tgi_sweep failed (threads=${threads}, rc=${rc})")
  endif()
endfunction()

foreach(t 1 2 8)
  run_sweep("${OUT}/results_t${t}"
            "trace=${OUT}/trace_t${t};profile=${OUT}/profile_t${t}" ${t})
  if(NOT EXISTS "${OUT}/profile_t${t}/profile.json")
    message(FATAL_ERROR "profiled run left no ${OUT}/profile_t${t}/profile.json")
  endif()
endforeach()
run_sweep("${OUT}/results_plain" "" 2)

# 1. Trace output is thread-count invariant, byte for byte.
foreach(f trace.json metrics.csv)
  foreach(t 2 8)
    expect_identical("${OUT}/trace_t1/${f}" "${OUT}/trace_t${t}/${f}")
  endforeach()
endforeach()

# 2. Neither the thread count nor tracing and profiling change what the
# sweep computes.
file(GLOB csvs RELATIVE "${OUT}/results_plain" "${OUT}/results_plain/*.csv")
if(csvs STREQUAL "")
  message(FATAL_ERROR "no result CSVs under ${OUT}/results_plain")
endif()
foreach(c ${csvs})
  foreach(t 1 2 8)
    expect_identical("${OUT}/results_plain/${c}" "${OUT}/results_t${t}/${c}")
  endforeach()
endforeach()

message(STATUS "trace determinism OK (${OUT})")
