# Runs BIN with the ;-separated ARGS and fails unless it exits with EXPECT
# and its combined stdout/stderr matches the regex MATCH.
#   cmake -DBIN=path "-DARGS=a;b" -DEXPECT=2 "-DMATCH=usage: " \
#         -P expect_exit.cmake
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR
          "${BIN} ${ARGS}: exit ${rc}, want ${EXPECT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR
          "${BIN} ${ARGS}: output does not match '${MATCH}'\n${out}${err}")
endif()
