# Helpers shared by the CTest scenario scripts in tools/ (included, never
# run on its own). Including it starts the scenario from an empty ${OUT}.
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

function(expect_identical a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "byte mismatch: ${a} vs ${b}")
  endif()
endfunction()

# Asserts that the stderr captured beside `outdir` (${outdir}.stderr)
# mentions `needle`.
function(expect_stderr_mentions outdir needle)
  file(READ "${outdir}.stderr" err)
  string(FIND "${err}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
            "expected stderr of ${outdir} to mention '${needle}', got: "
            "${err}")
  endif()
endfunction()

# Sets every shard in `dir` to a fixed past mtime (POSIX touch -t), so
# expect_shards_unwritten can tell whether anything rewrote one since.
function(pin_shard_mtimes dir)
  file(GLOB shards "${dir}/*.tgij")
  execute_process(COMMAND touch -t 200001010000.00 ${shards}
                  RESULT_VARIABLE rc)
  if(shards STREQUAL "" OR NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot pin the shard mtimes under ${dir}")
  endif()
endfunction()

function(expect_shards_unwritten dir)
  file(GLOB shards "${dir}/*.tgij")
  foreach(shard ${shards})
    file(TIMESTAMP "${shard}" stamp "%Y%m%d%H%M%S")
    if(NOT stamp STREQUAL "20000101000000")
      message(FATAL_ERROR "a rerun rewrote ${shard} (mtime ${stamp})")
    endif()
  endforeach()
endfunction()

# Runs the command after `journal` and SIGKILLs it once `journal` holds a
# point record; ${rc_var} gets its status (137 when the kill landed). A
# POSIX shell stops it at once, runs it in short slices until the record
# is there, and kills it stopped. The command runs at nice 19, so waking
# it does not preempt the shell on a shared CPU: otherwise a slice could
# last a whole scheduler slice, long enough to bank every point. A command
# that outruns the shell exits 0 instead; callers retry that.
function(kill_after_first_record rc_var journal)
  execute_process(
    COMMAND sh -c [[
      journal="$1"; shift
      nice -n 19 "$@" > /dev/null 2>&1 &
      pid=$!
      kill -STOP "$pid"
      i=0
      until grep -qs '^TGIJ2 point' "$journal" || [ "$i" -ge 50000 ]; do
        i=$((i + 1))
        kill -CONT "$pid"
        n=0; while [ "$n" -lt 20 ]; do n=$((n + 1)); done
        kill -STOP "$pid"
      done
      kill -KILL "$pid"
      wait "$pid"
    ]] sh "${journal}" ${ARGN}
    RESULT_VARIABLE rc)
  set(${rc_var} ${rc} PARENT_SCOPE)
endfunction()
