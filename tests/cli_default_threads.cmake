# Runs partwise_cli without --threads and checks it took the sequential
# default: exit 0 and a banner reading `threads=1` with no transport field.
#
#   cmake -DCLI=<path to partwise_cli> -DARGS="pa;grid;64" -P cli_default_threads.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(all "${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "partwise_cli ${ARGS} exited ${rc}; expected 0\n${all}")
endif()
if(NOT out MATCHES "graph: [^\n]* threads=1\n")
  message(FATAL_ERROR "partwise_cli ${ARGS} banner does not end in threads=1\n${all}")
endif()
if(out MATCHES "transport=")
  message(FATAL_ERROR "partwise_cli ${ARGS} banner names a transport\n${all}")
endif()
