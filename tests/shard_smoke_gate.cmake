# Tier-1 sharded-campaign smoke: run the committed sharded spec (one
# emptcp cell, 8 clients in 4 shard-engine cells with cross-cell backbone
# traffic) as spec'd, then again into a second directory with --shards 1,
# and require the two artifact sets — traces, manifests, ledger — to be
# byte-identical. The worker-shard count must never change a single
# output byte. Finally the same spec under EMPTCP_FIDELITY=hybrid must be
# refused with exit code 2. Invoked by ctest with:
#   -DCAMPAIGN_TOOL=<path to emptcp-campaign>
#   -DSPEC=<examples/campaigns/sharded_smoke.spec>
#   -DOUT_DIR=<scratch directory; _sharded/_serial suffixes are added>
foreach(var CAMPAIGN_TOOL SPEC OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "shard_smoke_gate: missing -D${var}")
  endif()
endforeach()

set(sharded_dir ${OUT_DIR}_sharded)
set(serial_dir ${OUT_DIR}_serial)
file(REMOVE_RECURSE ${sharded_dir} ${serial_dir})

execute_process(
  COMMAND ${CAMPAIGN_TOOL} --out ${sharded_dir} ${SPEC}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE sharded_report
  ERROR_VARIABLE sharded_log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "shard_smoke_gate: sharded run failed (${rc}): "
                      "${sharded_log}")
endif()
if(NOT sharded_log MATCHES "sharded fleets: 2 clients/cell")
  message(FATAL_ERROR "shard_smoke_gate: run did not go through the sharded "
                      "path: ${sharded_log}")
endif()
if(NOT sharded_report MATCHES "all digests and energy cross-checks ok")
  message(FATAL_ERROR "shard_smoke_gate: report integrity check failed:\n"
                      "${sharded_report}")
endif()

execute_process(
  COMMAND ${CAMPAIGN_TOOL} --out ${serial_dir} --shards 1 ${SPEC}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE serial_report
  ERROR_VARIABLE serial_log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "shard_smoke_gate: --shards 1 run failed (${rc}): "
                      "${serial_log}")
endif()

# Every artifact byte-identical across shard counts: ledger first (it
# holds the trace digests), then each file the sharded run produced.
foreach(name campaign.ledger)
  file(READ ${sharded_dir}/${name} sharded_bytes)
  file(READ ${serial_dir}/${name} serial_bytes)
  if(NOT sharded_bytes STREQUAL serial_bytes)
    message(FATAL_ERROR "shard_smoke_gate: ${name} differs between the "
                        "sharded and --shards 1 runs")
  endif()
endforeach()

file(GLOB sharded_files RELATIVE ${sharded_dir} ${sharded_dir}/*)
file(GLOB serial_files RELATIVE ${serial_dir} ${serial_dir}/*)
if(NOT sharded_files STREQUAL serial_files)
  message(FATAL_ERROR "shard_smoke_gate: artifact sets differ: "
                      "[${sharded_files}] vs [${serial_files}]")
endif()
foreach(name ${sharded_files})
  file(READ ${sharded_dir}/${name} sharded_bytes)
  file(READ ${serial_dir}/${name} serial_bytes)
  if(NOT sharded_bytes STREQUAL serial_bytes)
    message(FATAL_ERROR "shard_smoke_gate: ${name} differs between the "
                        "sharded and --shards 1 runs")
  endif()
endforeach()

# Same artifacts -> same rendered report.
if(NOT sharded_report STREQUAL serial_report)
  message(FATAL_ERROR "shard_smoke_gate: reports differ between shard counts")
endif()

# Hybrid fidelity on a sharded fleet is not verified yet, so the CLI must
# refuse it as a spec error (exit 2) before running anything, also when
# the fidelity comes from the environment.
set(hybrid_dir ${OUT_DIR}_hybrid)
file(REMOVE_RECURSE ${hybrid_dir})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env EMPTCP_FIDELITY=hybrid
          ${CAMPAIGN_TOOL} --out ${hybrid_dir} ${SPEC}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE hybrid_log)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "shard_smoke_gate: hybrid x sharded spec exited ${rc}, "
                      "expected 2: ${hybrid_log}")
endif()
if(NOT hybrid_log MATCHES "hybrid fidelity")
  message(FATAL_ERROR "shard_smoke_gate: hybrid x sharded rejection lacks "
                      "its reason: ${hybrid_log}")
endif()
if(EXISTS ${hybrid_dir}/campaign.ledger)
  message(FATAL_ERROR "shard_smoke_gate: rejected hybrid x sharded spec "
                      "still ran cells")
endif()

message(STATUS "shard_smoke_gate: sharded and --shards 1 artifacts are "
               "byte-identical (${sharded_files}); hybrid x sharded refused")
