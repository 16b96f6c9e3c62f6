# Fails when an object file defines a global or weak symbol outside one C++
# namespace.
#
#   cmake -DNM=nm -DOBJECTS=a.o -DNAMESPACE=fusedp::row_kernels_avx2 \
#         -P check_isa_symbols.cmake
#
# The row_kernels_isa_symbols test runs this on the AVX2 row-kernel object.
# Any header inline function or std:: template that object emits out of line
# is a weak symbol compiled for AVX2, and the linker may keep that copy for
# the whole program: a SIGILL on a host without AVX2.  Symbols inside the
# object's own namespace are safe, because only the AVX2 table's dispatch
# reaches them.
foreach(var NM OBJECTS NAMESPACE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_isa_symbols: -D${var}=... is required")
  endif()
endforeach()

# The Itanium mangling of the namespace as the start of a nested name:
# fusedp::row_kernels_avx2 -> 6fusedp16row_kernels_avx2.
string(REPLACE "::" ";" parts "${NAMESPACE}")
set(mangled "")
foreach(part IN LISTS parts)
  string(LENGTH "${part}" len)
  string(APPEND mangled "${len}${part}")
endforeach()
# _Z, optional special-name prefix (TV vtable, GV guard, Z local entity,
# ...), N, optional cv/ref qualifiers, then the namespace.
set(own "^_Z[A-Z]*N[KVr]*${mangled}")

set(bad "")
set(count 0)
foreach(obj IN LISTS OBJECTS)
  execute_process(COMMAND "${NM}" --defined-only --extern-only "${obj}"
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_isa_symbols: ${NM} failed on ${obj}")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    if(line STREQUAL "")
      continue()
    endif()
    string(REGEX REPLACE "^.* " "" sym "${line}")
    math(EXPR count "${count} + 1")
    # The C++ EH personality pointer GCC emits in any object with unwind
    # tables: one data word, identical in every object, no instructions.
    if(sym MATCHES "${own}" OR sym STREQUAL "DW.ref.__gxx_personality_v0")
      continue()
    endif()
    string(APPEND bad "  ${line}\n")
  endforeach()
endforeach()

if(count EQUAL 0)
  message(FATAL_ERROR "check_isa_symbols: no global symbols in ${OBJECTS}; "
                      "expected at least the namespace's entry point")
endif()
if(NOT bad STREQUAL "")
  message(FATAL_ERROR
    "check_isa_symbols: symbols outside ${NAMESPACE} (demangle with "
    "c++filt); force them inline or move them into the namespace:\n${bad}")
endif()
message(STATUS "check_isa_symbols: ${count} global symbol(s), all in ${NAMESPACE}")
