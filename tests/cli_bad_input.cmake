# Runs partwise_cli with input it must reject at its argument boundary and
# checks the rejection is a usage error, not an abort inside the library:
# non-zero exit, the usage text printed, and no PW_CHECK failure.
#
#   cmake -DCLI=<path to partwise_cli> -DARGS="mst;gnm;1" -P cli_bad_input.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(all "${out}${err}")
if(rc EQUAL 0)
  message(FATAL_ERROR "partwise_cli ${ARGS} exited 0; expected a usage error\n${all}")
endif()
if(NOT all MATCHES "usage: ")
  message(FATAL_ERROR "partwise_cli ${ARGS} printed no usage text (exit ${rc})\n${all}")
endif()
if(all MATCHES "PW_CHECK failed")
  message(FATAL_ERROR "partwise_cli ${ARGS} aborted in a PW_CHECK\n${all}")
endif()
