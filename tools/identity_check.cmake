# One store layout, two front ends (CTest script):
#
#   cmake -DTGI_SWEEP=<exe> -DTGI_SERVE=<exe> -DOUT=<dir> [-DFAULTS=<spec>]
#         -P identity_check.cmake
#
# A tgi_sweep checkpoint directory is a result cache, and `tgi_sweep ...
# checkpoint=C` and a one-entry campaign with the same keys are one sweep
# spec. So at threads=1 and threads=4:
#   1. a campaign over C computes nothing (computed=0 on stderr), writes
#      point, reference and summary CSVs equal to tgi_sweep's, and leaves
#      C's sweep and reference shards byte for byte as they were;
#   2. a cold campaign over a fresh cache banks the same shard bytes.
# The shards are found through the spec hashes in tgi_sweep's
# provenance.json.
include(${CMAKE_CURRENT_LIST_DIR}/check_common.cmake)
set(sweep_args sweep=16,48,80 seed=7)
set(campaign "[entry]\ncluster = fire\nsweep = 16,48,80\nseed = 7\n")
set(summary sweep_summary.csv)
if(FAULTS)
  list(APPEND sweep_args faults=${FAULTS})
  string(APPEND campaign "faults = ${FAULTS}\n")
  set(summary faults_summary.csv)
endif()
file(WRITE "${OUT}/campaign.conf" "${campaign}")

# Runs one command; its stderr lands in ${err}.
macro(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN} failed (rc=${rc}): ${err}")
  endif()
endmacro()

foreach(t 1 4)
  set(dir "${OUT}/t${t}")
  run(${TGI_SWEEP} ${sweep_args} threads=${t} outdir=${dir}/sweep
      checkpoint=${dir}/C)
  file(COPY "${dir}/C/" DESTINATION "${dir}/C_after_sweep")
  run(${TGI_SERVE} campaign=${OUT}/campaign.conf cache=${dir}/C
      outdir=${dir}/campaign threads=${t})
  if(NOT err MATCHES " hits=4 computed=0 ")
    message(FATAL_ERROR "campaign over ${dir}/C recomputed points: ${err}")
  endif()
  run(${TGI_SERVE} campaign=${OUT}/campaign.conf cache=${dir}/cold
      outdir=${dir}/cold_campaign threads=${t})

  file(READ "${dir}/sweep/provenance.json" provenance)
  string(JSON spec GET "${provenance}" entries 0 spec)
  string(JSON ref GET "${provenance}" entries 0 reference_spec)
  set(pairs
    sweep/fire_16.csv campaign/entry/point_16.csv
    sweep/fire_48.csv campaign/entry/point_48.csv
    sweep/fire_80.csv campaign/entry/point_80.csv
    sweep/reference_systemg.csv campaign/entry/reference.csv
    sweep/${summary} campaign/entry/${summary}
    C_after_sweep/${spec}.tgij C/${spec}.tgij
    C_after_sweep/${ref}.tgij C/${ref}.tgij
    C/${spec}.tgij cold/${spec}.tgij
    C/${ref}.tgij cold/${ref}.tgij)
  while(pairs)
    list(POP_FRONT pairs a b)
    expect_identical("${dir}/${a}" "${dir}/${b}")
  endwhile()
endforeach()
