# Tier-1 campaign smoke: run the committed smoke spec end to end (tiny
# 2-protocol x 2-seed grid, seconds of wall clock), check that no artifact
# retains a per-ACK trace kind, then re-run it and require a full resume —
# no cell recomputed, byte-identical report.
# Invoked by ctest with:
#   -DCAMPAIGN_TOOL=<path to emptcp-campaign>
#   -DSPEC=<examples/campaigns/smoke.spec>
#   -DOUT_DIR=<scratch campaign directory>
foreach(var CAMPAIGN_TOOL SPEC OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "campaign_smoke_gate: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})

execute_process(
  COMMAND ${CAMPAIGN_TOOL} --out ${OUT_DIR} ${SPEC}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE first_report
  ERROR_VARIABLE first_log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign_smoke_gate: first run failed (${rc}): "
                      "${first_log}")
endif()
if(NOT first_log MATCHES "4 ran, 0 resumed")
  message(FATAL_ERROR "campaign_smoke_gate: expected 4 fresh cells, got: "
                      "${first_log}")
endif()
if(NOT first_report MATCHES "all digests and energy cross-checks ok")
  message(FATAL_ERROR "campaign_smoke_gate: report integrity check failed:\n"
                      "${first_report}")
endif()
if(NOT first_report MATCHES "== flows ")
  message(FATAL_ERROR "campaign_smoke_gate: report lacks the per-flow "
                      "distribution section:\n${first_report}")
endif()

# Retention rule (DESIGN.md §7): the per-ACK kinds never reach an
# artifact; scheduler activity arrives as the mptcp.sched_picks counter.
file(GLOB smoke_traces ${OUT_DIR}/*.jsonl)
if(NOT smoke_traces)
  message(FATAL_ERROR "campaign_smoke_gate: no traces under ${OUT_DIR}")
endif()
foreach(trace ${smoke_traces})
  get_filename_component(name ${trace} NAME)
  file(STRINGS ${trace} per_ack_lines
       REGEX "\"kind\":\"(srtt|cwnd|sched_pick)\"")
  if(per_ack_lines)
    list(GET per_ack_lines 0 first_line)
    message(FATAL_ERROR "campaign_smoke_gate: ${name} retains a per-ACK "
                        "trace line: ${first_line}")
  endif()
  file(STRINGS ${trace} pick_lines REGEX "\"mptcp.sched_picks\"")
  if(NOT pick_lines MATCHES "\"value\":[1-9]")
    message(FATAL_ERROR "campaign_smoke_gate: ${name} lacks a non-zero "
                        "mptcp.sched_picks counter: ${pick_lines}")
  endif()
endforeach()

# Second invocation: everything resumes from the ledger, and the rendered
# report is byte-identical (same artifacts -> same report).
execute_process(
  COMMAND ${CAMPAIGN_TOOL} --out ${OUT_DIR} ${SPEC}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE second_report
  ERROR_VARIABLE second_log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign_smoke_gate: resume run failed (${rc}): "
                      "${second_log}")
endif()
if(NOT second_log MATCHES "0 ran, 4 resumed")
  message(FATAL_ERROR "campaign_smoke_gate: expected a full resume, got: "
                      "${second_log}")
endif()
if(NOT first_report STREQUAL second_report)
  message(FATAL_ERROR "campaign_smoke_gate: resumed report differs from the "
                      "original")
endif()

message(STATUS "campaign_smoke_gate: run + resume + report all consistent")
