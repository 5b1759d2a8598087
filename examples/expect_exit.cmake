# Runs `${CLI} ${FLAG} ${INPUT}` and fails unless it exits with code
# ${EXPECTED} and prints an "error: " line on stderr. A crash (a signal
# such as SIGABRT) is not an exit code, so it fails too.
execute_process(COMMAND ${CLI} ${FLAG} ${INPUT}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "expected exit code ${EXPECTED}, got '${code}'\n${err}")
endif()
if(NOT err MATCHES "error: ")
  message(FATAL_ERROR "expected an 'error: ' message on stderr, got\n${err}")
endif()
