# Runs CMD (a ;-separated command line) and fails unless it exits with
# EXPECT and prints an error message on stderr that contains MATCH and does
# not contain REJECT. Used by the CTest smokes that feed binaries
# degenerate flags: they must fail with a message and a distinct exit
# code, never abort. With STDOUT_MATCH, stdout must contain it too (the
# `--help` smokes, which exit 0 and print usage to stdout).
#
#   cmake -DCMD="bin;--flag" -DEXPECT=2 -DMATCH=text [-DREJECT=text]
#         [-DSTDOUT_MATCH=text] -P expect_exit_code.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT)
  message(FATAL_ERROR "${CMD}: expected exit ${EXPECT}, got '${code}'\n${err}")
endif()
if(DEFINED MATCH AND NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${CMD}: stderr does not mention '${MATCH}'\n${err}")
endif()
if(DEFINED REJECT AND err MATCHES "${REJECT}")
  message(FATAL_ERROR "${CMD}: stderr mentions '${REJECT}'\n${err}")
endif()
if(DEFINED STDOUT_MATCH AND NOT out MATCHES "${STDOUT_MATCH}")
  message(FATAL_ERROR
          "${CMD}: stdout does not mention '${STDOUT_MATCH}'\n${out}")
endif()
