# Runs CMD (a ;-separated command line) and fails unless it exits 0 and its
# stdout equals the file EXPECTED byte for byte. Used by the CTest byte
# pins of the paper benches' output.
#
#   cmake -DCMD="bin;--flag" -DEXPECTED=path -P expect_output.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${CMD}: expected exit 0, got '${code}'\n${err}")
endif()
file(READ ${EXPECTED} expected)
if(NOT out STREQUAL expected)
  string(REPLACE ";" " " shown "${CMD}")
  message(FATAL_ERROR "${shown}: stdout differs from ${EXPECTED}\n"
                      "--- got ---\n${out}")
endif()
