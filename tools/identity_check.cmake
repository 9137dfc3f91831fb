# Cross-front-end identity check (CTest script):
#
#   cmake -DTGI_SWEEP=<exe> -DTGI_SERVE=<exe> -DOUT=<dir> [-DFAULTS=<spec>]
#         -P identity_check.cmake
#
# `tgi_sweep ... checkpoint=C` and a one-entry campaign with the same keys
# are one sweep spec, so at threads=1 and threads=4 they write equal point,
# reference and summary CSVs, and the completed C/journal.tgij equals the
# cache shard cache/<hash>.tgij.
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(sweep_args sweep=16,48,80 seed=7)
set(campaign "[entry]\ncluster = fire\nsweep = 16,48,80\nseed = 7\n")
set(summary sweep_summary.csv)
if(FAULTS)
  list(APPEND sweep_args faults=${FAULTS})
  string(APPEND campaign "faults = ${FAULTS}\n")
  set(summary faults_summary.csv)
endif()
file(WRITE "${OUT}/campaign.conf" "${campaign}")

foreach(t 1 4)
  foreach(cmd "${TGI_SWEEP};${sweep_args};threads=${t};outdir=${OUT}/t${t}/sweep;checkpoint=${OUT}/t${t}/C"
              "${TGI_SERVE};campaign=${OUT}/campaign.conf;cache=${OUT}/t${t}/cache;outdir=${OUT}/t${t}/campaign;threads=${t}")
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${cmd} failed (rc=${rc}): ${err}")
    endif()
  endforeach()

  # provenance.json names the entry's spec hash, i.e. its cache shard.
  file(READ "${OUT}/t${t}/campaign/provenance.json" provenance)
  string(JSON spec GET "${provenance}" entries 0 spec)
  set(pairs
    sweep/fire_16.csv campaign/entry/point_16.csv
    sweep/fire_48.csv campaign/entry/point_48.csv
    sweep/fire_80.csv campaign/entry/point_80.csv
    sweep/reference_systemg.csv campaign/entry/reference.csv
    sweep/${summary} campaign/entry/${summary}
    C/journal.tgij cache/${spec}.tgij)
  while(pairs)
    list(POP_FRONT pairs a b)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    "${OUT}/t${t}/${a}" "${OUT}/t${t}/${b}" RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "byte mismatch: ${OUT}/t${t}/${a} vs ${OUT}/t${t}/${b}")
    endif()
  endwhile()
endforeach()
