# Runs CMD (a ;-separated command line) and fails unless it exits with
# EXPECT and prints a check-failure message on stderr (containing MATCH,
# when given). Used by the CTest smokes that feed binaries degenerate
# flags: they must fail with a message and a distinct exit code, never
# abort.
#
#   cmake -DCMD="bin;--flag" -DEXPECT=2 [-DMATCH=text] -P expect_exit_code.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE code OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT)
  message(FATAL_ERROR "${CMD}: expected exit ${EXPECT}, got '${code}'\n${err}")
endif()
if(NOT err MATCHES "check failed")
  message(FATAL_ERROR "${CMD}: no check-failure message on stderr\n${err}")
endif()
if(DEFINED MATCH AND NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${CMD}: stderr does not mention '${MATCH}'\n${err}")
endif()
